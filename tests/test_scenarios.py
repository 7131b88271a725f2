"""Scenario generation: effects, moving truth, determinism, spec round-trip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import (
    ArrivalBatch,
    BaseWorkload,
    BurstArrivals,
    DriftSchedule,
    PoisonedReports,
    PopulationChurn,
    Scenario,
    ScenarioError,
    ScenarioSpec,
    SkewShift,
    effect_from_dict,
)


def _base(**overrides) -> BaseWorkload:
    kwargs = dict(kind="zipf", n_items=64, n_bits=8, exponent=2.0, seed=1)
    kwargs.update(overrides)
    return BaseWorkload(**kwargs)


def _scenario(effects=(), **overrides) -> Scenario:
    kwargs = dict(base=_base(), n_steps=6, batch_size=200, k=3)
    kwargs.update(overrides)
    return Scenario(effects=effects, **kwargs)


class TestBaseWorkload:
    def test_zipf_resolve_orders_hot_to_cold(self):
        ids, freqs, n_bits = _base().resolve()
        assert ids.size == 64 and n_bits == 8
        assert np.all(np.diff(freqs) <= 0) and freqs.sum() == pytest.approx(1.0)
        assert len(set(ids.tolist())) == 64 and int(ids.max()) < 256

    def test_zipf_shift_flattens_the_head(self):
        _, plain, _ = _base().resolve()
        _, shifted, _ = _base(shift=8.0).resolve()
        assert shifted[0] / shifted[4] < plain[0] / plain[4]

    def test_dataset_resolve_uses_empirical_truth(self):
        base = BaseWorkload(kind="dataset", dataset="rdb", scale="tiny", seed=0)
        scenario = Scenario(base=base, n_steps=3, batch_size=100, k=3)
        from repro.datasets.registry import load_dataset

        dataset = load_dataset("rdb", scale="tiny", seed=0)
        assert list(scenario.true_top_k(1)) == dataset.true_top_k(3)
        assert scenario.n_bits == dataset.n_bits

    def test_unknown_dataset(self):
        base = BaseWorkload(kind="dataset", dataset="nope")
        with pytest.raises(ScenarioError, match="nope"):
            base.resolve()

    def test_validation(self):
        with pytest.raises(ScenarioError, match="kind"):
            BaseWorkload(kind="uniform")
        with pytest.raises(ScenarioError, match="domain"):
            BaseWorkload(kind="zipf", n_items=300, n_bits=8)
        with pytest.raises(ScenarioError, match="dataset"):
            BaseWorkload(kind="dataset")


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        scenario = _scenario(
            effects=[
                DriftSchedule(mode="cyclic", start=2, period=4),
                BurstArrivals(period=2, magnitude=2.0),
                PoisonedReports(fraction=0.1),
            ]
        )
        a = list(scenario.iter_batches(7))
        b = list(scenario.iter_batches(7))
        for batch_a, batch_b in zip(a, b):
            assert np.array_equal(batch_a.items, batch_b.items)
            assert batch_a == batch_b  # step/truth/poison metadata

    def test_churn_replay_is_bit_identical(self):
        scenario = _scenario(effects=[PopulationChurn(rate=0.3, population_size=300)])
        a = [batch.items for batch in scenario.iter_batches(5)]
        b = [batch.items for batch in scenario.iter_batches(5)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        scenario = _scenario()
        a = next(iter(scenario.iter_batches(0))).items
        b = next(iter(scenario.iter_batches(1))).items
        assert not np.array_equal(a, b)

    def test_item_domain_is_spec_identity_not_run_seed(self):
        assert np.array_equal(_scenario().item_ids, _scenario().item_ids)
        assert not np.array_equal(
            _scenario().item_ids, _scenario(base=_base(seed=2)).item_ids
        )


class TestDrift:
    def test_abrupt_swap_displaces_the_whole_top_k(self):
        scenario = _scenario(effects=[DriftSchedule(mode="abrupt", start=4)])
        assert set(scenario.true_top_k(1)).isdisjoint(scenario.true_top_k(6))
        assert scenario.drift_steps() == [4]

    def test_gradual_ramp_spreads_the_change(self):
        scenario = _scenario(
            effects=[DriftSchedule(mode="gradual", start=3, duration=3)], n_steps=8
        )
        events = scenario.drift_steps()
        assert events and all(3 <= step <= 6 for step in events)
        assert set(scenario.true_top_k(1)).isdisjoint(scenario.true_top_k(8))

    def test_cyclic_returns_to_the_original_truth(self):
        scenario = _scenario(
            effects=[DriftSchedule(mode="cyclic", start=1, period=4)], n_steps=9
        )
        assert scenario.true_top_k(1) == scenario.true_top_k(5) == scenario.true_top_k(9)

    def test_weight_shapes(self):
        gradual = DriftSchedule(mode="gradual", start=2, duration=4)
        assert gradual.weight(1) == 0.0
        assert gradual.weight(2) == pytest.approx(0.25)
        assert gradual.weight(5) == 1.0 == gradual.weight(9)
        cyclic = DriftSchedule(mode="cyclic", start=1, period=4)
        assert [cyclic.weight(s) for s in range(1, 6)] == [0.0, 0.5, 1.0, 0.5, 0.0]

    def test_frequencies_stay_normalised_under_blend(self):
        scenario = _scenario(
            effects=[DriftSchedule(mode="gradual", start=2, duration=4)]
        )
        for step in range(1, 7):
            assert scenario.frequencies(step).sum() == pytest.approx(1.0)


class TestBurst:
    def test_burst_cadence(self):
        scenario = _scenario(
            effects=[BurstArrivals(period=3, magnitude=4.0, start=3)],
            batch_size=100,
        )
        sizes = [batch.items.size for batch in scenario.iter_batches(0)]
        assert sizes == [100, 100, 400, 100, 100, 400]

    def test_drought_magnitude_below_one(self):
        effect = BurstArrivals(period=2, magnitude=0.25, start=2)
        assert effect.batch_size(2, 100) == 25
        assert effect.batch_size(3, 100) == 100


class TestChurn:
    def test_population_constrains_the_stream(self):
        scenario = _scenario(
            effects=[PopulationChurn(rate=0.2, population_size=50)], n_steps=4
        )
        batches = list(scenario.iter_batches(3))
        # A 50-user population can only ever show <= 50 distinct items.
        for batch in batches:
            assert len(set(batch.items.tolist())) <= 50

    def test_churned_population_follows_drift_with_lag(self):
        scenario = _scenario(
            effects=[
                DriftSchedule(mode="abrupt", start=3),
                PopulationChurn(rate=0.5, population_size=400),
            ],
            n_steps=8,
            batch_size=400,
        )
        batches = list(scenario.iter_batches(0))
        new_top = scenario.true_top_k(8)[0]
        share = [float(np.mean(b.items == new_top)) for b in batches]
        # Before the drift the new top item is cold; churn pulls it in
        # over the following steps rather than instantaneously.
        assert share[-1] > 0.1 > share[0]
        assert share[3] < share[-1]


class TestSkew:
    def test_positive_drift_steepens_the_mixture(self):
        scenario = _scenario(
            effects=[SkewShift(exponents=(0.8, 2.2), drift_per_step=0.15)], n_steps=8
        )
        assert scenario.frequencies(8).max() > scenario.frequencies(1).max()

    def test_shares_weight_the_parties(self):
        heavy_head = _scenario(
            effects=[SkewShift(exponents=(0.5, 3.0), shares=(0.1, 0.9))]
        )
        heavy_tail = _scenario(
            effects=[SkewShift(exponents=(0.5, 3.0), shares=(0.9, 0.1))]
        )
        assert heavy_head.frequencies(1).max() > heavy_tail.frequencies(1).max()

    def test_share_exponent_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            SkewShift(exponents=(1.0, 2.0), shares=(1.0,))


class TestPoison:
    def test_counts_targets_and_honest_truth(self):
        scenario = _scenario(
            effects=[PoisonedReports(fraction=0.1, start=2)], n_steps=3, batch_size=100
        )
        batches = list(scenario.iter_batches(0))
        assert [b.n_poisoned for b in batches] == [0, 10, 10]
        cold = set(int(i) for i in scenario.item_ids[-3:])
        assert set(int(i) for i in batches[1].items[-10:]) <= cold
        assert not cold & set(batches[1].true_top_k)

    def test_explicit_targets_cycle(self):
        scenario = _scenario(
            effects=[PoisonedReports(fraction=0.05, items=(7, 9))], batch_size=100
        )
        batch = next(iter(scenario.iter_batches(0)))
        assert batch.n_poisoned == 5
        assert batch.items[-5:].tolist() == [7, 9, 7, 9, 7]

    def test_targets_must_fit_the_domain(self):
        with pytest.raises(ScenarioError, match="exceed"):
            _scenario(effects=[PoisonedReports(fraction=0.1, items=(1 << 12,))])

    def test_default_targets_never_enter_the_moving_truth(self):
        # An adversarial drift rotation lands the hot mass on the coldest
        # positions; default poison targets must dodge it.
        scenario = _scenario(
            effects=[
                DriftSchedule(mode="abrupt", start=3, rotation=61),
                PoisonedReports(fraction=0.1),
            ],
            n_steps=5,
            batch_size=100,
        )
        ever_true = set()
        for step in range(1, 6):
            ever_true.update(scenario.true_top_k(step))
        batches = list(scenario.iter_batches(0))
        injected = set(int(i) for i in batches[-1].items[-10:])
        assert not injected & ever_true


class TestScenarioValidation:
    def test_duplicate_effect_kinds(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            _scenario(effects=[BurstArrivals(), BurstArrivals(period=2)])

    def test_non_effect_objects(self):
        with pytest.raises(ScenarioError, match="effect"):
            _scenario(effects=["drift"])

    def test_step_bounds(self):
        scenario = _scenario()
        with pytest.raises(ValueError, match="step"):
            scenario.frequencies(0)
        with pytest.raises(ValueError, match="step"):
            scenario.frequencies(7)

    def test_k_cannot_exceed_items(self):
        with pytest.raises(ScenarioError, match="k"):
            _scenario(k=100)


class TestEffectDicts:
    @pytest.mark.parametrize(
        "effect",
        [
            DriftSchedule(mode="cyclic", start=3, period=6, rotation=4),
            BurstArrivals(period=2, magnitude=0.5, start=4),
            PopulationChurn(rate=0.4, population_size=123),
            SkewShift(exponents=(0.9, 1.8), drift_per_step=-0.05, shares=(0.3, 0.7)),
            PoisonedReports(fraction=0.2, start=3, items=(1, 2, 3)),
        ],
    )
    def test_round_trip(self, effect):
        assert effect_from_dict(effect.to_dict()) == effect

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="ddos"):
            effect_from_dict({"kind": "ddos"})

    def test_unknown_parameter(self):
        with pytest.raises(ScenarioError, match="strength"):
            effect_from_dict({"kind": "drift", "strength": 2})

    def test_invalid_value_names_the_effect(self):
        with pytest.raises(ScenarioError, match="drift"):
            effect_from_dict({"kind": "drift", "mode": "sideways"})


class TestScenarioSpec:
    def test_round_trip_and_build(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "lab",
                "base": {"kind": "zipf", "n_items": 64, "n_bits": 8,
                         "exponent": 2.0, "seed": 1},
                "n_steps": 6,
                "batch_size": 200,
                "k": 3,
                "window_batches": 2,
                "stride": 2,
                "effects": [{"kind": "drift", "mode": "abrupt", "start": 4}],
            }
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        scenario = spec.build()
        assert isinstance(scenario, Scenario) and scenario.drift_steps() == [4]

    def test_defaults(self):
        spec = ScenarioSpec.from_dict({})
        assert spec.base.kind == "zipf" and spec.effects == ()

    def test_fingerprint_tracks_identity_not_name(self):
        doc = {"base": {"n_items": 64, "n_bits": 8}, "k": 3}
        a = ScenarioSpec.from_dict(dict(doc, name="a"))
        b = ScenarioSpec.from_dict(dict(doc, name="b"))
        assert a.fingerprint() == b.fingerprint()
        changed = ScenarioSpec.from_dict(dict(doc, k=4))
        assert a.fingerprint() != changed.fingerprint()

    def test_unknown_key(self):
        with pytest.raises(ScenarioError, match="tracker"):
            ScenarioSpec.from_dict({"tracker": {}})

    def test_window_must_fit_the_stream(self):
        with pytest.raises(ScenarioError, match="window_batches"):
            ScenarioSpec.from_dict({"n_steps": 2, "window_batches": 5})


class TestArrivalSeams:
    def test_tracker_track_consumes_scenario_batches(self):
        from repro.core.config import MechanismConfig
        from repro.service import SlidingWindowDiscovery

        scenario = _scenario(n_steps=4, batch_size=300)
        config = MechanismConfig(
            k=3, epsilon=6.0, n_bits=8, granularity=3, simulation_mode="per_user"
        )
        tracker = SlidingWindowDiscovery(config, window_batches=2, stride=2, rng=0)
        snapshots = list(tracker.track(scenario.iter_batches(0)))
        assert [s.step for s in snapshots] == [2, 4]
        assert snapshots == tracker.snapshots

    def test_track_accepts_plain_arrays(self):
        from repro.core.config import MechanismConfig
        from repro.service import SlidingWindowDiscovery

        config = MechanismConfig(
            k=2, epsilon=6.0, n_bits=8, granularity=2, simulation_mode="per_user"
        )
        tracker = SlidingWindowDiscovery(config, window_batches=2, rng=0)
        arrivals = [np.full(100, 9), np.full(100, 9), np.full(100, 9)]
        assert len(list(tracker.track(arrivals))) == 2

    def test_client_pool_from_arrivals(self):
        from repro.service import ClientPool

        scenario = _scenario(n_steps=3, batch_size=100)
        pool = ClientPool.from_arrivals(scenario.iter_batches(0), name="lab")
        assert pool.n_users == 300 and pool.name == "lab"
        with pytest.raises(ValueError, match="arrival"):
            ClientPool.from_arrivals([])

    def test_arrival_batch_metadata(self):
        scenario = _scenario(effects=[DriftSchedule(mode="abrupt", start=4)])
        batches = list(scenario.iter_batches(0))
        assert [b.step for b in batches] == [1, 2, 3, 4, 5, 6]
        assert [b.truth_changed for b in batches] == [False, False, False, True, False, False]
        assert isinstance(batches[0], ArrivalBatch)
