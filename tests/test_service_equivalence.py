"""The service-mode invariant: for a fixed seed on the serial backend,
service-mode TAP/TAPS are bit-identical to the in-memory path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fedpem import FedPEMMechanism
from repro.core.config import MechanismConfig
from repro.core.tap import TAPMechanism
from repro.core.taps import TAPSMechanism
from repro.federation.messages import MessageDirection


def _assert_bit_identical(memory, service):
    """Every numeric artefact of the two runs must be exactly equal."""
    assert service.heavy_hitters == memory.heavy_hitters
    assert service.estimated_counts == memory.estimated_counts
    assert set(service.party_records) == set(memory.party_records)
    for name, mem_record in memory.party_records.items():
        svc_record = service.party_records[name]
        assert svc_record.local_heavy_hitters == mem_record.local_heavy_hitters
        # LevelEstimate is a dataclass: == compares every field, including
        # the float count/frequency dicts, exactly.
        assert svc_record.levels == mem_record.levels
    assert service.accountant.blocks == memory.accountant.blocks


def _config(dataset, **overrides) -> MechanismConfig:
    base = dict(
        k=5,
        epsilon=4.0,
        n_bits=dataset.n_bits,
        granularity=5,
        simulation_mode="per_user",
    )
    base.update(overrides)
    return MechanismConfig(**base)


@pytest.mark.parametrize("mechanism_cls", [TAPMechanism, TAPSMechanism])
class TestServiceModeBitIdentical:
    def test_matching_batch_size(self, mechanism_cls, two_party_dataset):
        """Explicit equal batching: multi-batch rounds on both paths."""
        config = _config(two_party_dataset, report_batch_size=64)
        memory = mechanism_cls(config).run(two_party_dataset, rng=123)
        service = mechanism_cls(
            config.with_updates(execution_mode="service")
        ).run(two_party_dataset, rng=123)
        _assert_bit_identical(memory, service)

    def test_default_batching(self, mechanism_cls, two_party_dataset):
        """Populations under the service default batch: one batch per round,
        identical to the historical one-shot in-memory path."""
        config = _config(two_party_dataset)
        memory = mechanism_cls(config).run(two_party_dataset, rng=7)
        service = mechanism_cls(
            config.with_updates(execution_mode="service")
        ).run(two_party_dataset, rng=7)
        _assert_bit_identical(memory, service)

    def test_every_oracle(self, mechanism_cls, two_party_dataset):
        for oracle in ("krr", "oue", "olh"):
            config = _config(two_party_dataset, oracle=oracle, report_batch_size=97)
            memory = mechanism_cls(config).run(two_party_dataset, rng=11)
            service = mechanism_cls(
                config.with_updates(execution_mode="service")
            ).run(two_party_dataset, rng=11)
            _assert_bit_identical(memory, service)


class TestServiceTranscript:
    def test_exact_wire_accounting_replaces_estimates(self, two_party_dataset):
        config = _config(two_party_dataset, report_batch_size=64)
        memory = TAPMechanism(config).run(two_party_dataset, rng=123)
        service = TAPMechanism(
            config.with_updates(execution_mode="service")
        ).run(two_party_dataset, rng=123)
        assert not memory.transcript.messages_of_kind("report_batch")
        batches = service.transcript.messages_of_kind("report_batch")
        opens = service.transcript.messages_of_kind("service_round_open")
        assert batches and opens
        assert all(m.direction is MessageDirection.PARTY_TO_SERVER for m in batches)
        assert all(m.payload_bits > 0 for m in batches + opens)
        # Each party runs granularity-many rounds; one open per round.
        assert len(opens) == config.granularity * two_party_dataset.n_parties

    def test_krr_upload_is_one_byte_per_report(self, two_party_dataset):
        """Small domains: exact wire bytes beat the analytic pair estimate."""
        config = _config(two_party_dataset, report_batch_size=1000)
        service = TAPMechanism(
            config.with_updates(execution_mode="service")
        ).run(two_party_dataset, rng=5)
        batch_bits = sum(
            m.payload_bits
            for m in service.transcript.messages_of_kind("report_batch")
        )
        total_reports = two_party_dataset.total_users
        # 1 byte per k-RR report plus a few dozen header bytes per batch.
        assert batch_bits < total_reports * 8 * 2


class TestServiceModeBaselines:
    def test_service_mode_works_for_baselines(self, two_party_dataset):
        config = _config(two_party_dataset, report_batch_size=128)
        memory = FedPEMMechanism(config).run(two_party_dataset, rng=2)
        service = FedPEMMechanism(
            config.with_updates(execution_mode="service")
        ).run(two_party_dataset, rng=2)
        assert service.heavy_hitters == memory.heavy_hitters
        assert service.estimated_counts == memory.estimated_counts
