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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("ExtensionStrategy", "MechanismConfig"),
        "repro.core.results": ("LevelEstimate", "MechanismResult", "PartyRunRecord"),
        "repro.core.base": ("FederatedMechanism",),
        "repro.core.extension": (
            "adaptive_extension_count",
            "drift_allowance",
            "select_anchor",
        ),
        "repro.core.shared_trie": ("SharedTrieResult", "construct_shared_trie"),
        "repro.core.pruning": (
            "PruningCandidates",
            "consensus_prune",
            "select_pruning_candidates",
        ),
        "repro.core.tap": ("TAPMechanism",),
        "repro.core.taps": ("TAPSMechanism",),
        "repro.core.aggregation": ("aggregate_local_reports",),
    },
)
