"""Core contribution: the TAP and TAPS federated heavy-hitter mechanisms.

* :class:`MechanismConfig` — all protocol knobs (binary width ``m``,
  granularity ``g``, shared level ``g_s``, query ``k``, privacy budget ε,
  frequency oracle, extension strategy, pruning ratio β, ...).
* :class:`TAPMechanism` — the Target-Aligning Prefix tree mechanism
  (Algorithm 3): shared shallow trie construction + adaptive trie extension.
* :class:`TAPSMechanism` — TAP with the consensus-based pruning strategy
  (Algorithm 4): phase II runs sequentially over parties sorted by
  population and each party prunes candidates suggested by its predecessor.
* :class:`MechanismResult` — heavy hitters, per-party diagnostics,
  communication transcript and privacy accounting for one run.
"""

from repro.core.config import ExtensionStrategy, MechanismConfig
from repro.core.results import LevelEstimate, MechanismResult, PartyRunRecord
from repro.core.base import FederatedMechanism
from repro.core.extension import (
    adaptive_extension_count,
    drift_allowance,
    select_anchor,
)
from repro.core.shared_trie import SharedTrieResult, construct_shared_trie
from repro.core.pruning import (
    PruningCandidates,
    consensus_prune,
    select_pruning_candidates,
)
from repro.core.tap import TAPMechanism
from repro.core.taps import TAPSMechanism
from repro.core.aggregation import aggregate_local_reports

__all__ = [
    "ExtensionStrategy",
    "MechanismConfig",
    "LevelEstimate",
    "MechanismResult",
    "PartyRunRecord",
    "FederatedMechanism",
    "adaptive_extension_count",
    "drift_allowance",
    "select_anchor",
    "SharedTrieResult",
    "construct_shared_trie",
    "PruningCandidates",
    "consensus_prune",
    "select_pruning_candidates",
    "TAPMechanism",
    "TAPSMechanism",
    "aggregate_local_reports",
]
