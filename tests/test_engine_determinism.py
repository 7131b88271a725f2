"""Cross-backend determinism: every backend reproduces the serial results.

The engine's contract is that backends are a pure execution knob.  These
tests pin it down end to end: mechanism runs (heavy hitters, per-party
reports, communication and privacy accounting) and whole sweep grids must
be identical across serial, thread and process execution for a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.baselines.fedpem import FedPEMMechanism
from repro.baselines.gtf import GTFMechanism
from repro.baselines.pem import SinglePartyPEM
from repro.core.config import MechanismConfig
from repro.core.tap import TAPMechanism
from repro.core.taps import TAPSMechanism
from repro.datasets.registry import load_dataset
from repro.experiments.runner import (
    ExperimentSettings,
    cell_seed,
    iter_cells,
    mechanism_seed_offset,
    run_sweep,
)

PARALLEL_BACKENDS = ("thread", "process")
MECHANISMS = {
    "tap": TAPMechanism,
    "taps": TAPSMechanism,
    "fedpem": FedPEMMechanism,
    "gtf": GTFMechanism,
}


def _fingerprint(result):
    """Everything observable about a run except wall-clock time."""
    return {
        "heavy_hitters": result.heavy_hitters,
        "estimated_counts": result.estimated_counts,
        "party_heavy_hitters": {
            name: record.local_heavy_hitters
            for name, record in sorted(result.party_records.items())
        },
        "selected_per_level": {
            name: [level.selected_prefixes for level in record.levels]
            for name, record in sorted(result.party_records.items())
        },
        "upload_bits": result.transcript.upload_bits(),
        "broadcast_bits": result.transcript.broadcast_bits(),
        "n_reports": result.accountant.n_reports(),
        "max_spent": result.accountant.max_spent(),
        "accountant_blocks": [
            (
                block.party,
                block.level,
                block.epsilon,
                block.oracle,
                block.domain_size,
                block.user_ids.tolist(),
            )
            for block in result.accountant.blocks
        ],
    }


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("rdb", scale="tiny", seed=3)


@pytest.fixture(scope="module")
def config(dataset) -> MechanismConfig:
    return MechanismConfig(k=6, epsilon=4.0, n_bits=dataset.n_bits, granularity=6)


@pytest.fixture(scope="module")
def serial_fingerprints(dataset, config):
    return {
        name: _fingerprint(cls(config).run(dataset, rng=77))
        for name, cls in MECHANISMS.items()
    }


class TestMechanismsAcrossBackends:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_identical_to_serial(
        self, mechanism, backend, dataset, config, serial_fingerprints
    ):
        cls = MECHANISMS[mechanism]
        parallel_config = config.with_updates(backend=backend, max_workers=2)
        result = cls(parallel_config).run(dataset, rng=77)
        assert _fingerprint(result) == serial_fingerprints[mechanism]

    def test_serial_rerun_is_deterministic(
        self, dataset, config, serial_fingerprints
    ):
        result = TAPMechanism(config).run(dataset, rng=77)
        assert _fingerprint(result) == serial_fingerprints["tap"]

    def test_accounting_survives_parallel_execution(self, dataset, config):
        result = TAPMechanism(config.with_updates(backend="process")).run(
            dataset, rng=3
        )
        assert result.accountant.satisfies_ldp()
        assert result.accountant.n_reports() <= dataset.total_users


class TestPEMAcrossBackends:
    def test_run_many_identical_across_backends(self, dataset):
        pem = SinglePartyPEM(k=5, n_bits=dataset.n_bits, granularity=6)
        reference = None
        for backend in ("serial",) + PARALLEL_BACKENDS:
            results = pem.run_many(
                dataset.parties, rng=11, backend=backend, max_workers=2
            )
            snapshot = [(r.party, r.heavy_hitters, r.estimated_counts) for r in results]
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference, backend


class TestSweepAcrossBackends:
    @pytest.fixture(scope="class")
    def smoke(self) -> ExperimentSettings:
        return ExperimentSettings().smoke()

    @staticmethod
    def _strip(records):
        return [
            {key: value for key, value in rec.items() if key != "runtime_seconds"}
            for rec in records
        ]

    @pytest.fixture(scope="class")
    def serial_records(self, smoke):
        return self._strip(
            run_sweep(smoke, mechanisms=("fedpem", "taps")).records
        )

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_sweep_records_identical(self, smoke, serial_records, backend):
        records = run_sweep(
            smoke, mechanisms=("fedpem", "taps"), backend=backend, max_workers=2
        ).records
        assert self._strip(records) == serial_records

    def test_settings_backend_knob_is_honoured(self, smoke, serial_records):
        parallel = smoke.with_updates(backend="thread", max_workers=2)
        records = run_sweep(parallel, mechanisms=("fedpem", "taps")).records
        assert self._strip(records) == serial_records


class TestBackendValidation:
    def test_config_rejects_unknown_backend_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            MechanismConfig(backend="gpu")

    def test_settings_reject_unknown_backends_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentSettings(backend="bogus")
        with pytest.raises(ValueError, match="unknown party_backend"):
            ExperimentSettings(party_backend="bogus")


class TestStableSweepSeeding:
    def test_offset_is_stable_digest(self):
        # zlib.crc32 is standardised: these values never change across
        # processes, platforms or PYTHONHASHSEED settings.
        assert mechanism_seed_offset("taps") == mechanism_seed_offset("TAPS")
        assert 0 <= mechanism_seed_offset("taps") < 1000
        assert mechanism_seed_offset("taps") != mechanism_seed_offset("tap")

    def test_cell_seed_is_pure(self):
        assert cell_seed(2025, "taps", 2) == 2025 + 7919 * 2 + mechanism_seed_offset(
            "taps"
        )

    def test_cells_carry_seeds_up_front(self):
        settings = ExperimentSettings().smoke()
        cells = list(iter_cells(settings, mechanisms=("fedpem", "taps")))
        assert [cell.seed for cell in cells] == [
            cell_seed(settings.seed, cell.mechanism, cell.repetition) for cell in cells
        ]
        assert all(cell.config.k == cell.k for cell in cells)
