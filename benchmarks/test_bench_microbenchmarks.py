"""Micro-benchmarks of the building blocks (true timing benchmarks).

Unlike the table/figure reproductions (which run once and report utility),
these measure wall-clock performance of the hot code paths with proper
repetition, using pytest-benchmark's default statistics:

* one frequency-oracle round per oracle,
* a full single-party PEM run,
* a full TAPS run on the RDB stand-in.

They back the running-time columns of Table 4 with per-component numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pem import SinglePartyPEM
from repro.core.config import MechanismConfig
from repro.core.taps import TAPSMechanism
from repro.datasets.registry import load_dataset
from repro.ldp.registry import make_oracle


@pytest.fixture(scope="module")
def bench_dataset():
    return load_dataset("rdb", scale="tiny", seed=1)


@pytest.mark.parametrize("oracle_name", ["krr", "oue", "olh"])
def test_frequency_oracle_round(benchmark, oracle_name):
    """One estimation round: 5 000 users over a 64-candidate domain."""
    oracle = make_oracle(oracle_name, epsilon=4.0)
    values = np.random.default_rng(0).integers(0, 64, size=5_000)

    def run_round():
        return oracle.run(values, 64, rng=1, mode="aggregate")

    result = benchmark(run_round)
    assert result.n_users == 5_000


def test_single_party_pem_run(benchmark, bench_dataset):
    """A full PEM pipeline on the largest party of the tiny RDB stand-in."""
    party = bench_dataset.sorted_by_population()[0]
    pem = SinglePartyPEM(k=10, epsilon=4.0, n_bits=bench_dataset.n_bits, granularity=6)

    result = benchmark(lambda: pem.run(party, rng=0))
    assert len(result.heavy_hitters) <= 10


def test_taps_end_to_end_run(benchmark, bench_dataset):
    """A full TAPS run (both phases, all parties) on the tiny RDB stand-in."""
    config = MechanismConfig(
        k=10, epsilon=4.0, n_bits=bench_dataset.n_bits, granularity=6
    )
    mechanism = TAPSMechanism(config)

    result = benchmark(lambda: mechanism.run(bench_dataset, rng=0))
    assert len(result.heavy_hitters) == 10
