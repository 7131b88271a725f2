"""repro — Federated heavy hitter analytics with local differential privacy.

A complete reproduction of "Federated Heavy Hitter Analytics with Local
Differential Privacy" (SIGMOD 2025): the TAP and TAPS mechanisms, every
substrate they rely on (ε-LDP frequency oracles, prefix-tree machinery, a
federated simulation), the paper's baselines (PEM, FedPEM, GTF), synthetic
stand-ins for the evaluation datasets, utility metrics, and an experiment
harness that regenerates every table and figure of the evaluation section.

Quickstart
----------
>>> from repro import load_dataset, TAPSMechanism, MechanismConfig, f1_score
>>> dataset = load_dataset("rdb", scale="tiny", seed=0)
>>> config = MechanismConfig(k=10, epsilon=4.0, n_bits=dataset.n_bits, granularity=8)
>>> result = TAPSMechanism(config).run(dataset, rng=0)
>>> truth = dataset.true_top_k(10)
>>> 0.0 <= f1_score(result.heavy_hitters, truth) <= 1.0
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Names resolve on first use (PEP 562): ``import repro`` loads no
# submodule, so a gateway or CLI process pays only for what it runs.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "ExtensionStrategy",
            "MechanismConfig",
            "MechanismResult",
            "TAPMechanism",
            "TAPSMechanism",
        ),
        "repro.baselines": (
            "FedPEMMechanism",
            "GTFMechanism",
            "SinglePartyPEM",
            "TrieHHBaseline",
            "DirectUploadCostModel",
        ),
        "repro.datasets": ("FederatedDataset", "load_dataset", "dataset_summary_table"),
        "repro.engine": (
            "ExecutionBackend",
            "SerialBackend",
            "ThreadBackend",
            "ProcessBackend",
            "get_backend",
        ),
        "repro.ldp": (
            "KRandomizedResponse",
            "OptimizedUnaryEncoding",
            "OptimizedLocalHashing",
            "make_oracle",
        ),
        "repro.metrics": ("f1_score", "ncr_score", "average_local_recall"),
        "repro.federation": ("Party",),
        "repro.service": (
            "AggregationServer",
            "ClientPool",
            "SlidingWindowDiscovery",
            "run_in_service_mode",
        ),
        "repro.scenarios": ("Scenario", "ScenarioSpec", "run_scenario"),
    },
)
__all__.append("__version__")
