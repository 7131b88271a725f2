"""Declarative sweep specs: parsing, validation, round-trip, fingerprints."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import ExperimentSettings
from repro.experiments.spec import (
    LoadgenSpec,
    SpecError,
    SweepSpec,
    load_loadgen_spec,
    load_scenario_spec,
    load_spec,
    save_spec,
)
from repro.scenarios import ScenarioSpec

SPEC_DICT = {
    "name": "unit-spec",
    "settings": {"scale": "tiny", "repetitions": 2, "seed": 7, "granularity": 5},
    "grid": {
        "datasets": ["rdb"],
        "mechanisms": ["fedpem", "taps"],
        "epsilons": [2.0, 4.0],
        "ks": [5],
    },
    "config_overrides": {"oracle": "krr"},
    "dataset_kwargs": {},
}


class TestFromDict:
    def test_grid_axes_land_on_settings(self):
        spec = SweepSpec.from_dict(SPEC_DICT)
        assert spec.settings.datasets == ("rdb",)
        assert spec.settings.mechanisms == ("fedpem", "taps")
        assert spec.settings.epsilons == (2.0, 4.0)
        assert spec.settings.ks == (5,)
        assert spec.settings.repetitions == 2
        assert spec.name == "unit-spec"

    def test_axes_may_live_under_settings_directly(self):
        spec = SweepSpec.from_dict(
            {"settings": {"scale": "tiny", "mechanisms": ["taps"]}}
        )
        assert spec.settings.mechanisms == ("taps",)

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="typo_key"):
            SweepSpec.from_dict({"typo_key": 1})

    def test_unknown_settings_key(self):
        with pytest.raises(SpecError, match="not_a_knob"):
            SweepSpec.from_dict({"settings": {"not_a_knob": 1}})

    def test_unknown_config_override(self):
        with pytest.raises(SpecError, match="not_a_config_field"):
            SweepSpec.from_dict({"config_overrides": {"not_a_config_field": 1}})

    def test_axis_in_both_grid_and_settings(self):
        with pytest.raises(SpecError, match="once"):
            SweepSpec.from_dict(
                {"settings": {"ks": [5]}, "grid": {"ks": [5]}}
            )

    def test_empty_grid_axis(self):
        with pytest.raises(SpecError, match="non-empty"):
            SweepSpec.from_dict({"grid": {"datasets": []}})

    @pytest.mark.parametrize(
        "section,key,value",
        [("settings", "party_backend", "thread"),
         ("config_overrides", "backend", "thread"),
         ("config_overrides", "max_workers", 2)],
    )
    def test_stale_party_backend_keys_fail_loudly(self, section, key, value):
        # Parties run in party order: a spec that still sizes the removed
        # party pool must not run as if it applied.
        stale = {**SPEC_DICT, section: {**SPEC_DICT.get(section, {}), key: value}}
        with pytest.raises(SpecError, match=rf"stale\.yaml.*{key}"):
            SweepSpec.from_dict(stale, source="stale.yaml")

    def test_invalid_settings_value_is_a_spec_error(self):
        with pytest.raises(SpecError, match="backend"):
            SweepSpec.from_dict({"settings": {"backend": "quantum"}})

    def test_non_mapping_document(self):
        with pytest.raises(SpecError, match="mapping"):
            SweepSpec.from_dict([1, 2, 3])

    @pytest.mark.parametrize("section", ["settings", "grid", "config_overrides", "dataset_kwargs"])
    def test_non_mapping_section(self, section):
        with pytest.raises(SpecError, match=f"'{section}' must be a mapping"):
            SweepSpec.from_dict({section: "small"})


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        spec = SweepSpec.from_dict(SPEC_DICT)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_settings_round_trip_is_exact(self):
        settings = ExperimentSettings(
            scale="tiny", repetitions=2, epsilons=(1.0, 4.0), backend="thread"
        )
        assert ExperimentSettings.from_dict(settings.to_dict()) == settings

    def test_settings_reject_unknown_keys(self):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentSettings.from_dict({"bogus": 1})


class TestFingerprint:
    def test_stable_across_instances(self):
        a = SweepSpec.from_dict(SPEC_DICT)
        b = SweepSpec.from_dict(json.loads(json.dumps(SPEC_DICT)))
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_the_grid(self):
        a = SweepSpec.from_dict(SPEC_DICT)
        changed = dict(SPEC_DICT, grid={**SPEC_DICT["grid"], "ks": [10]})
        assert a.fingerprint() != SweepSpec.from_dict(changed).fingerprint()

    def test_ignores_execution_knobs_and_name(self):
        # Backends never change what a cell computes, so they must not
        # invalidate a resume; nor should relabelling the spec.
        a = SweepSpec.from_dict(SPEC_DICT)
        changed = dict(
            SPEC_DICT,
            name="renamed",
            settings={
                **SPEC_DICT["settings"],
                "backend": "thread",
                "max_workers": 4,
            },
        )
        assert a.fingerprint() == SweepSpec.from_dict(changed).fingerprint()


SCENARIO_BLOCK = {
    "name": "unit-lab",
    "base": {"kind": "zipf", "n_items": 64, "n_bits": 8, "exponent": 2.0, "seed": 1},
    "n_steps": 6,
    "batch_size": 200,
    "k": 3,
    "window_batches": 2,
    "stride": 2,
    "effects": [
        {"kind": "drift", "mode": "abrupt", "start": 4},
        {"kind": "poison", "fraction": 0.1},
    ],
}


class TestScenarioBlock:
    def test_round_trip_is_exact(self):
        spec = SweepSpec.from_dict({**SPEC_DICT, "scenario": SCENARIO_BLOCK})
        assert isinstance(spec.scenario, ScenarioSpec)
        assert spec.scenario.k == 3 and len(spec.scenario.effects) == 2
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_absent_block_stays_absent(self):
        # No "scenario": null in the document form — pre-scenario stores
        # must keep their fingerprints.
        spec = SweepSpec.from_dict(SPEC_DICT)
        assert spec.scenario is None and "scenario" not in spec.to_dict()

    def test_fingerprint_tracks_the_scenario(self):
        plain = SweepSpec.from_dict(SPEC_DICT)
        with_scenario = SweepSpec.from_dict({**SPEC_DICT, "scenario": SCENARIO_BLOCK})
        changed = SweepSpec.from_dict(
            {**SPEC_DICT, "scenario": {**SCENARIO_BLOCK, "k": 4}}
        )
        assert plain.fingerprint() != with_scenario.fingerprint()
        assert with_scenario.fingerprint() != changed.fingerprint()

    def test_unknown_scenario_key_is_a_spec_error(self):
        with pytest.raises(SpecError, match="tracker"):
            SweepSpec.from_dict({"scenario": {"tracker": 1}})

    def test_unknown_effect_kind_is_a_spec_error(self):
        with pytest.raises(SpecError, match="ddos"):
            SweepSpec.from_dict({"scenario": {"effects": [{"kind": "ddos"}]}})

    def test_non_mapping_block(self):
        with pytest.raises(SpecError, match="mapping"):
            SweepSpec.from_dict({"scenario": "drift"})


class TestLoadScenarioSpec:
    def test_standalone_document(self, tmp_path):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps(SCENARIO_BLOCK))
        spec = load_scenario_spec(path)
        assert spec == ScenarioSpec.from_dict(SCENARIO_BLOCK)

    def test_embedded_in_a_sweep_spec(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SPEC_DICT, "scenario": SCENARIO_BLOCK}))
        assert load_scenario_spec(path) == ScenarioSpec.from_dict(SCENARIO_BLOCK)

    def test_yaml_document(self, tmp_path):
        path = tmp_path / "lab.yaml"
        path.write_text(
            "name: yaml-lab\n"
            "base: {kind: zipf, n_items: 64, n_bits: 8, exponent: 2.0, seed: 1}\n"
            "effects:\n  - {kind: burst, period: 2}\n"
        )
        spec = load_scenario_spec(path)
        assert spec.name == "yaml-lab" and spec.effects[0].period == 2

    def test_empty_scenario_block(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SPEC_DICT, "scenario": None}))
        with pytest.raises(SpecError, match="empty"):
            load_scenario_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_scenario_spec(tmp_path / "nope.yaml")

    def test_invalid_scenario_is_a_spec_error(self, tmp_path):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps({"base": {"kind": "uniform"}}))
        with pytest.raises(SpecError, match="uniform"):
            load_scenario_spec(path)


class TestFiles:
    def test_yaml_load(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "name: yaml-spec\n"
            "settings:\n  scale: tiny\n  repetitions: 1\n"
            "grid:\n  datasets: [rdb]\n  mechanisms: [taps]\n"
            "  epsilons: [4.0]\n  ks: [5]\n"
        )
        spec = load_spec(path)
        assert spec.name == "yaml-spec"
        assert spec.settings.mechanisms == ("taps",)

    def test_yaml_flow_style_load(self, tmp_path):
        # YAML is a JSON superset; a .yaml file in flow style must go
        # through the YAML parser, not the '{' JSON sniff.
        path = tmp_path / "flow.yaml"
        path.write_text(
            "{settings: {scale: tiny}, grid: {datasets: [rdb], "
            "mechanisms: [taps], epsilons: [4.0], ks: [5]}}\n"
        )
        assert load_spec(path).settings.mechanisms == ("taps",)

    def test_json_load_and_save_round_trip(self, tmp_path):
        spec = SweepSpec.from_dict(SPEC_DICT)
        path = save_spec(spec, tmp_path / "spec.json")
        assert load_spec(path) == spec

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_spec(tmp_path / "nope.yaml")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(path)


LOADGEN_DICT = {
    "name": "net-lab",
    "gateway": {"connection_credits": 8, "max_frame_bytes": 1 << 20},
    "workload": {
        "dataset": "rdb",
        "scale": "tiny",
        "oracle": "olh",
        "epsilon": 2.0,
        "level": 5,
        "rounds": 2,
        "batch_size": 512,
    },
    "load": {"connections": 3, "backend": "serial", "seed": 7},
}


class TestLoadgenSpec:
    def test_from_dict_and_round_trip(self):
        spec = LoadgenSpec.from_dict(LOADGEN_DICT)
        assert spec.name == "net-lab"
        assert LoadgenSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_name_the_offender(self):
        bad = {**LOADGEN_DICT, "gateway": {"connection_credits": 8, "typo": 1}}
        with pytest.raises(SpecError, match="typo"):
            LoadgenSpec.from_dict(bad, source="bad.yaml")
        with pytest.raises(SpecError, match="wurkload"):
            LoadgenSpec.from_dict({"wurkload": {}}, source="bad.yaml")
        # `load.adaptive` is not a key: a spec that sets it fails loudly
        # instead of running at the fixed batch size without saying so.
        stale = {**LOADGEN_DICT, "load": {"adaptive": {"target_p95_ms": 25.0}}}
        with pytest.raises(SpecError, match="unknown.*'adaptive'"):
            LoadgenSpec.from_dict(stale, source="stale.yaml")

    @pytest.mark.parametrize("section", ["gateway", "workload", "load", "cluster"])
    def test_every_section_names_its_unknown_key(self, section):
        doc = {**LOADGEN_DICT, section: {**LOADGEN_DICT.get(section, {}), "typo": 1}}
        with pytest.raises(SpecError, match=rf"stale\.yaml.*{section}.*'typo'"):
            LoadgenSpec.from_dict(doc, source="stale.yaml")

    @pytest.mark.parametrize("key,value", [("ring_seed", 0), ("n_vnodes", 64)])
    def test_stale_ring_keys_fail_loudly(self, key, value):
        # A cluster routes batches round-robin, with no ring to configure;
        # a spec that still sets the old ring knobs (even to their old
        # defaults) must not run as if they applied.
        stale = {**LOADGEN_DICT, "cluster": {"shards": 2, key: value}}
        with pytest.raises(SpecError, match=rf"unknown cluster.*'{key}'"):
            LoadgenSpec.from_dict(stale, source="stale.yaml")

    def test_stale_decode_shard_key_fails_loudly(self):
        # The gateway counts each batch with one support-count scan; a spec
        # that still sets the old candidate-range split must not run as if
        # it applied.
        stale = {**LOADGEN_DICT, "gateway": {"n_decode_shards": 8}}
        with pytest.raises(SpecError, match=r"unknown gateway.*'n_decode_shards'"):
            LoadgenSpec.from_dict(stale, source="stale.yaml")

    @pytest.mark.parametrize(
        "key,value",
        [("decode_backend", "thread"), ("decode_workers", 2),
         ("max_inflight_batches", 128)],
    )
    def test_stale_gateway_engine_keys_fail_loudly(self, key, value):
        # The gateway ingests every batch on its event loop: a spec that
        # still sizes the old decode engine or in-flight bound must not
        # run as if they applied.
        stale = {**LOADGEN_DICT, "gateway": {"connection_credits": 8, key: value}}
        with pytest.raises(SpecError, match=rf"unknown gateway.*'{key}'"):
            LoadgenSpec.from_dict(stale, source="stale.yaml")

    @pytest.mark.parametrize("form", [True, {}, "turbo"])
    def test_every_form_of_the_adaptive_block_fails_loudly(self, form):
        # `adaptive: true` was the default-config shorthand and `{}` an
        # empty config; neither may now run silently at the fixed batch size.
        stale = {**LOADGEN_DICT, "load": {"connections": 2, "adaptive": form}}
        with pytest.raises(SpecError, match="unknown.*'adaptive'"):
            LoadgenSpec.from_dict(stale, source="stale.yaml")

    @pytest.mark.parametrize("bad_section", [[], False, ""])
    def test_falsy_non_mapping_sections_are_rejected(self, bad_section):
        # `load: []` must not silently drop the operator's configuration.
        with pytest.raises(SpecError, match="mapping"):
            LoadgenSpec.from_dict({**LOADGEN_DICT, "load": bad_section})
        with pytest.raises(SpecError, match="mapping"):
            SweepSpec.from_dict({"settings": bad_section})
        # null/missing still default cleanly.
        assert LoadgenSpec.from_dict({**LOADGEN_DICT, "load": None}).load == {}

    @pytest.mark.parametrize("bad_name", [0, False, ["x"]])
    def test_non_string_names_are_rejected(self, bad_name):
        with pytest.raises(SpecError, match="'name' must be a string"):
            LoadgenSpec.from_dict({**LOADGEN_DICT, "name": bad_name})
        with pytest.raises(SpecError, match="'name' must be a string"):
            SweepSpec.from_dict({"name": bad_name})
        assert LoadgenSpec.from_dict({**LOADGEN_DICT, "name": None}).name == "loadgen"

    def test_consumer_views_map_onto_the_apis(self):
        spec = LoadgenSpec.from_dict(LOADGEN_DICT)
        assert spec.gateway_kwargs() == {
            "connection_credits": 8,
            "max_frame_bytes": 1 << 20,
        }
        kwargs = spec.loadgen_kwargs()
        assert kwargs["dataset"] == "rdb" and kwargs["oracle"] == "olh"
        assert kwargs["connections"] == 3 and kwargs["seed"] == 7
        assert "scenario" not in kwargs
        # The views feed the real constructors without TypeErrors.
        from repro.net.gateway import AggregationGateway

        AggregationGateway(**spec.gateway_kwargs())

    def test_scenario_block_replaces_the_dataset(self):
        doc = {
            "workload": {
                "scenario": {
                    "base": {"kind": "zipf", "n_items": 16, "n_bits": 6, "seed": 1},
                    "n_steps": 6,
                    "batch_size": 50,
                    "k": 2,
                }
            }
        }
        spec = LoadgenSpec.from_dict(doc)
        assert isinstance(spec.scenario, ScenarioSpec)
        assert spec.loadgen_kwargs()["scenario"] is spec.scenario
        assert LoadgenSpec.from_dict(spec.to_dict()) == spec

    def test_fingerprint_tracks_content(self):
        spec = LoadgenSpec.from_dict(LOADGEN_DICT)
        again = LoadgenSpec.from_dict(LOADGEN_DICT)
        assert spec.fingerprint() == again.fingerprint()
        other = LoadgenSpec.from_dict(
            {**LOADGEN_DICT, "load": {"connections": 4}}
        )
        assert other.fingerprint() != spec.fingerprint()

    def test_yaml_file_load(self, tmp_path):
        path = tmp_path / "loadgen.yaml"
        path.write_text(
            "name: from-yaml\n"
            "gateway: {connection_credits: 4}\n"
            "workload: {dataset: rdb, scale: tiny}\n"
            "load: {connections: 2}\n"
        )
        spec = load_loadgen_spec(path)
        assert spec.name == "from-yaml"
        assert spec.load == {"connections": 2}

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_loadgen_spec(tmp_path / "nope.yaml")
