"""Determinism: fixed-seed mechanism runs and backend-independent sweeps.

Mechanism runs (heavy hitters, per-party reports, communication and
privacy accounting) are a function of the seed alone: their discrete
outputs are pinned below.  The engine's contract is that sweep backends
are a pure execution knob: whole sweep grids must be identical across
serial, thread and process execution for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict

import pytest

from repro.baselines.fedpem import FedPEMMechanism
from repro.baselines.gtf import GTFMechanism
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


#: The discrete outputs of every mechanism at ``rng=77`` on the module's
#: dataset and config: (heavy hitters, upload bits, broadcast bits,
#: n_reports, digest of :func:`_discrete_digest`).  Floats are left out,
#: so the pins hold on every supported Python and platform.
SERIAL_PINS = {
    ("memory", "tap"): (
        [117, 1838, 246, 2648, 125, 969], 1984, 640, 1600, "c06917b3b4396ba9"
    ),
    ("memory", "taps"): (
        [117, 246, 2648, 125, 969, 1000], 6272, 5248, 1600, "e0150a0be1412fdf"
    ),
    ("memory", "fedpem"): (
        [1605, 948, 959, 1996, 950, 984], 768, 128, 1600, "6aa9bf4e1b436095"
    ),
    ("memory", "gtf"): (
        [985, 984, 1140, 945, 969, 40], 5120, 4480, 1600, "6029de91e1e1f6b0"
    ),
    ("service", "tap"): (
        [987, 984, 3568, 985, 2851, 1618], 18432, 12648, 1600, "ff5f4f1bc1b54da6"
    ),
    ("service", "taps"): (
        [947, 3568, 3806, 984, 985, 987], 22912, 17440, 1600, "663ba099ce96af1e"
    ),
    ("service", "fedpem"): (
        [984, 1605, 648, 953, 977, 978], 17408, 11056, 1600, "17f8db138f1ab5e0"
    ),
    ("service", "gtf"): (
        [1605, 1608, 1602, 1115, 1601, 1606], 21760, 15408, 1600, "aae0bf3eb9f689ac"
    ),
}


def _discrete_digest(fingerprint) -> str:
    """Digest of a fingerprint's per-level selections, per-party reported
    items and accountant blocks (their float-valued parts left out)."""
    discrete = {
        "selected_per_level": fingerprint["selected_per_level"],
        "party_items": {
            name: sorted(items)
            for name, items in fingerprint["party_heavy_hitters"].items()
        },
        "accountant_blocks": fingerprint["accountant_blocks"],
    }
    canonical = json.dumps(discrete, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class TestSerialMechanismRuns:
    @pytest.mark.parametrize("mode,mechanism", sorted(SERIAL_PINS))
    def test_discrete_outputs_are_pinned(self, mode, mechanism, dataset, config):
        if mode == "service":
            config = config.with_updates(
                execution_mode="service", simulation_mode="per_user"
            )
        fingerprint = _fingerprint(MECHANISMS[mechanism](config).run(dataset, rng=77))
        assert (
            fingerprint["heavy_hitters"],
            fingerprint["upload_bits"],
            fingerprint["broadcast_bits"],
            fingerprint["n_reports"],
            _discrete_digest(fingerprint),
        ) == SERIAL_PINS[mode, mechanism]

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_parties_run_in_party_order(self, mechanism, dataset, config):
        # Each round's parties speak in the dataset's party order, at most
        # once each (TAPS's pruning hand-off is sent by every party but the
        # last and received by every party but the first), and the
        # accountant's blocks come grouped by party in that order.
        result = MECHANISMS[mechanism](config).run(dataset, rng=77)
        order = [party.name for party in dataset.parties]
        rounds = defaultdict(list)
        for message in result.transcript.messages:
            rounds[message.direction, message.kind, message.level].append(
                message.party
            )
        for parties in rounds.values():
            assert parties == sorted(set(parties), key=order.index)
        block_parties = [block.party for block in result.accountant.blocks]
        assert set(block_parties) == set(order)
        assert block_parties == sorted(block_parties, key=order.index)

    def test_serial_rerun_is_deterministic(
        self, dataset, config, serial_fingerprints
    ):
        result = TAPMechanism(config).run(dataset, rng=77)
        assert _fingerprint(result) == serial_fingerprints["tap"]


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
    def test_settings_reject_unknown_backends_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentSettings(backend="bogus")

    @pytest.mark.parametrize("key,value", [("backend", "thread"), ("max_workers", 2)])
    def test_config_refuses_removed_party_backend_knobs(self, key, value):
        # Parties run in party order: a config that still asks for a party
        # pool must not run as if it applied.
        with pytest.raises(TypeError, match=key):
            MechanismConfig(**{key: value})
        valid_keys = r"allowed: \['defense', "
        with pytest.raises(ValueError, match=rf"unknown config key.*'{key}'.*{valid_keys}"):
            MechanismConfig.from_dict({key: value})

    def test_settings_refuse_removed_party_backend(self):
        with pytest.raises(TypeError, match="party_backend"):
            ExperimentSettings(party_backend="thread")


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
