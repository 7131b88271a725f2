"""Local differential privacy substrate: frequency oracles and budgeting.

A *frequency oracle* (FO) is an ε-LDP mechanism that lets each user report a
sanitised version of her value over a finite candidate domain and lets the
aggregator compute unbiased frequency estimates for every candidate.  The
paper treats the FO as a black box (Section 3.2); the heavy-hitter logic in
:mod:`repro.core` therefore only interacts with the :class:`FrequencyOracle`
interface defined here.

Implemented oracles (Wang et al., USENIX Security 2017 formulations):

* :class:`KRandomizedResponse` (``k-RR``) — direct randomised response,
* :class:`OptimizedUnaryEncoding` (``OUE``) — one-hot encoding with
  asymmetric bit flipping,
* :class:`OptimizedLocalHashing` (``OLH``) — hash to a small domain then
  randomised response.

Every oracle supports two simulation paths:

* ``per_user`` — each user's report is materialised (faithful simulation),
* ``aggregate`` — the per-candidate support counts are sampled from their
  exact sampling distribution (binomial/multinomial), which is statistically
  identical for estimation purposes and orders of magnitude faster.
"""

from repro.ldp.base import EstimationResult, FrequencyOracle
from repro.ldp.krr import KRandomizedResponse
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.ldp.olh import OptimizedLocalHashing
from repro.ldp.packed import PackedUnaryReports
from repro.ldp.budget import PrivacyAccountant, ReportBlock
from repro.ldp.registry import available_oracles, make_oracle

__all__ = [
    "EstimationResult",
    "FrequencyOracle",
    "KRandomizedResponse",
    "OptimizedUnaryEncoding",
    "OptimizedLocalHashing",
    "PackedUnaryReports",
    "PrivacyAccountant",
    "ReportBlock",
    "available_oracles",
    "make_oracle",
]
