"""Cost model of the infeasible "upload every report" strategy (OUE/OLH).

Tables 1 and 4 of the paper compare the prefix-tree mechanisms against the
naive alternative of letting every user ship her full OUE vector (or OLH
report) to the central server, which then scans the entire item domain to
decode.  Actually executing this at realistic domain sizes is the whole
point of *not* doing it (the paper reports ``> 2 PiB`` and ``> 72 h``), so
this module computes the costs analytically from the same accounting
conventions used elsewhere in the repository, plus an optional tiny
empirical run to calibrate the per-operation constant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.datasets.base import FederatedDataset
from repro.ldp.registry import make_oracle
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DirectUploadCosts:
    """Analytic costs of the direct-upload strategy."""

    oracle: str
    n_users: int
    domain_size: int
    communication_bits: int
    decode_operations: int
    projected_seconds: float

    def communication_human(self) -> str:
        """Human-readable communication size (KiB / MiB / GiB / TiB / PiB)."""
        value = self.communication_bits / 8.0
        for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
            if value < 1024.0 or unit == "PiB":
                return f"{value:.2f} {unit}"
            value /= 1024.0
        return f"{value:.2f} PiB"  # pragma: no cover - unreachable


class DirectUploadCostModel:
    """Estimate communication and computation of uploading raw FO reports."""

    def __init__(self, oracle: str = "oue", epsilon: float = 4.0):
        self.oracle_name = oracle
        self.epsilon = float(epsilon)

    def costs(
        self,
        n_users: int,
        domain_size: int,
        *,
        seconds_per_operation: float | None = None,
    ) -> DirectUploadCosts:
        """Analytic costs for ``n_users`` users over an item domain of ``domain_size``.

        Parameters
        ----------
        seconds_per_operation:
            Wall-clock cost of one decode operation.  Defaults to a measured
            calibration (see :meth:`calibrate`) falling back to 5e-9 s.
        """
        check_positive("n_users", n_users)
        check_positive("domain_size", domain_size)
        oracle = make_oracle(self.oracle_name, self.epsilon)
        bits_per_report = oracle.report_bits(domain_size)
        communication = int(n_users) * int(bits_per_report)
        operations = oracle.decode_cost(n_users, domain_size)
        per_op = seconds_per_operation if seconds_per_operation is not None else 5e-9
        return DirectUploadCosts(
            oracle=self.oracle_name,
            n_users=int(n_users),
            domain_size=int(domain_size),
            communication_bits=communication,
            decode_operations=int(operations),
            projected_seconds=float(operations) * per_op,
        )

    def costs_for_dataset(
        self, dataset: FederatedDataset, *, domain_size: int | None = None
    ) -> DirectUploadCosts:
        """Costs of direct upload for every user of ``dataset``.

        ``domain_size`` defaults to the full encodable domain ``2**m`` which
        is what a server without candidate pruning would have to scan.
        """
        size = domain_size if domain_size is not None else (1 << dataset.n_bits)
        return self.costs(dataset.total_users, size)

    def calibrate(self, sample_users: int = 2_000, sample_domain: int = 64) -> float:
        """Measure seconds-per-decode-operation with a tiny real run."""
        oracle = make_oracle(self.oracle_name, self.epsilon)
        rng = np.random.default_rng(0)
        values = rng.integers(0, sample_domain, size=sample_users)
        start = time.perf_counter()
        reports = oracle.perturb(values, sample_domain, rng)
        oracle.support_counts(reports, sample_domain)
        elapsed = time.perf_counter() - start
        operations = max(1, oracle.decode_cost(sample_users, sample_domain))
        return max(elapsed / operations, 1e-12)

    @staticmethod
    def paper_scale_example() -> DirectUploadCosts:
        """The paper's illustrative numbers: 5M users, |X| = 2M, OUE.

        Section 4.1: the server-side communication cost is ``1e13`` bits.
        """
        model = DirectUploadCostModel(oracle="oue", epsilon=4.0)
        return model.costs(5_000_000, 2_000_000)

