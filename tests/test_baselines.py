"""Tests for the baseline mechanisms: PEM, FedPEM, GTF, TrieHH, direct upload."""

import numpy as np
import pytest

from repro.baselines.direct import DirectUploadCostModel
from repro.baselines.fedpem import FedPEMMechanism
from repro.baselines.gtf import GTFMechanism
from repro.baselines.pem import SinglePartyPEM
from repro.baselines.triehh import TrieHHBaseline
from repro.core.config import ExtensionStrategy, MechanismConfig


class TestSinglePartyPEM:
    def test_finds_dominant_items(self, skewed_party):
        pem = SinglePartyPEM(k=3, epsilon=6.0, n_bits=6, granularity=3)
        result = pem.run(skewed_party, rng=0)
        assert 3 in result.heavy_hitters
        assert 12 in result.heavy_hitters
        assert len(result.heavy_hitters) == 3

    def test_always_uses_fixed_extension(self):
        pem = SinglePartyPEM(k=5, epsilon=2.0, n_bits=8, granularity=4)
        assert pem.config.extension is ExtensionStrategy.FIXED
        assert pem.config.phase1_user_fraction is None

    def test_levels_recorded(self, skewed_party):
        pem = SinglePartyPEM(k=3, epsilon=4.0, n_bits=6, granularity=3)
        result = pem.run(skewed_party, rng=1)
        assert [lev.level for lev in result.levels] == [1, 2, 3]

    def test_estimated_counts_non_negative(self, skewed_party):
        pem = SinglePartyPEM(k=3, epsilon=4.0, n_bits=6, granularity=3)
        result = pem.run(skewed_party, rng=2)
        assert all(c >= 0 for c in result.estimated_counts.values())


@pytest.mark.parametrize("mechanism_cls", [FedPEMMechanism, GTFMechanism])
class TestFederatedBaselines:
    def test_returns_k_items(self, two_party_dataset, tiny_config, mechanism_cls):
        result = mechanism_cls(tiny_config).run(two_party_dataset, rng=0)
        assert len(result.heavy_hitters) == tiny_config.k

    def test_satisfies_ldp(self, two_party_dataset, tiny_config, mechanism_cls):
        result = mechanism_cls(tiny_config).run(two_party_dataset, rng=1)
        assert result.accountant.satisfies_ldp()

    def test_finds_globally_dominant_items_at_high_epsilon(
        self, two_party_dataset, tiny_config, mechanism_cls
    ):
        config = tiny_config.with_updates(epsilon=8.0)
        result = mechanism_cls(config).run(two_party_dataset, rng=2)
        assert 5 in result.heavy_hitters

    def test_fixed_extension_enforced(self, tiny_config, mechanism_cls):
        mech = mechanism_cls(tiny_config)
        assert mech.config.extension is ExtensionStrategy.FIXED

    def test_every_party_uploads_final_report(
        self, two_party_dataset, tiny_config, mechanism_cls
    ):
        result = mechanism_cls(tiny_config).run(two_party_dataset, rng=3)
        reports = result.transcript.messages_of_kind("local_heavy_hitters")
        assert {m.party for m in reports} == {"alpha", "beta"}


class TestGTFSpecific:
    def test_gtf_reports_frequencies_not_counts(self, two_party_dataset, tiny_config):
        result = GTFMechanism(tiny_config).run(two_party_dataset, rng=0)
        for record in result.party_records.values():
            for value in record.local_heavy_hitters.values():
                assert 0.0 <= value <= 1.5  # frequencies, not population counts

    def test_gtf_logs_per_level_global_broadcasts(self, two_party_dataset, tiny_config):
        result = GTFMechanism(tiny_config).run(two_party_dataset, rng=1)
        broadcasts = result.transcript.messages_of_kind("gtf_global_prefixes")
        assert len(broadcasts) == tiny_config.granularity * two_party_dataset.n_parties


class TestTrieHH:
    def test_finds_dominant_item_without_ldp(self, skewed_party):
        baseline = TrieHHBaseline(k=3, n_bits=6, granularity=3, sampling_fraction=0.3, theta=3)
        result = baseline.run(skewed_party, rng=0)
        assert 3 in result.heavy_hitters

    def test_votes_recorded_per_level(self, skewed_party):
        baseline = TrieHHBaseline(k=3, n_bits=6, granularity=3, sampling_fraction=0.2, theta=2)
        result = baseline.run(skewed_party, rng=1)
        assert 1 <= len(result.votes_per_level) <= 3

    def test_high_threshold_returns_few_or_no_items(self, skewed_party):
        baseline = TrieHHBaseline(k=5, n_bits=6, granularity=3, sampling_fraction=0.05, theta=10_000)
        result = baseline.run(skewed_party, rng=2)
        assert result.heavy_hitters == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TrieHHBaseline(k=0)
        with pytest.raises(ValueError):
            TrieHHBaseline(sampling_fraction=0.0)
        with pytest.raises(ValueError):
            TrieHHBaseline(n_bits=4, granularity=5)


class TestDirectUploadCostModel:
    def test_paper_scale_example_matches_section_4(self):
        costs = DirectUploadCostModel.paper_scale_example()
        assert costs.communication_bits == 5_000_000 * 2_000_000
        assert costs.communication_bits == pytest.approx(1e13)

    def test_oue_communication_scales_with_domain(self):
        model = DirectUploadCostModel("oue", epsilon=4.0)
        small = model.costs(1000, 100)
        large = model.costs(1000, 10_000)
        assert large.communication_bits == 100 * small.communication_bits

    def test_olh_communication_independent_of_domain(self):
        model = DirectUploadCostModel("olh", epsilon=4.0)
        assert (
            model.costs(1000, 100).communication_bits
            == model.costs(1000, 1_000_000).communication_bits
        )

    def test_decode_cost_scales_with_both(self):
        model = DirectUploadCostModel("olh", epsilon=2.0)
        assert model.costs(10, 10).decode_operations == 100

    def test_human_readable_units(self):
        costs = DirectUploadCostModel("oue", epsilon=2.0).costs(5_000_000, 2_000_000)
        assert "TiB" in costs.communication_human() or "PiB" in costs.communication_human()

    def test_costs_for_dataset_uses_full_domain(self, two_party_dataset):
        model = DirectUploadCostModel("oue", epsilon=2.0)
        costs = model.costs_for_dataset(two_party_dataset)
        assert costs.domain_size == 1 << two_party_dataset.n_bits
        assert costs.n_users == two_party_dataset.total_users

    def test_calibrate_returns_positive_seconds(self):
        per_op = DirectUploadCostModel("oue", epsilon=2.0).calibrate(
            sample_users=200, sample_domain=16
        )
        assert per_op > 0
