"""Declarative sweep specifications: YAML/JSON documents that drive sweeps.

A *spec* is the operator-facing description of one sweep: the
:class:`~repro.experiments.runner.ExperimentSettings` knobs, the grid axes,
and the optional per-cell configuration overrides.  ``repro sweep`` loads a
spec, validates it against the dataclass schemas, and hands the result to
:func:`~repro.experiments.runner.run_sweep` — a spec-driven run is
bit-identical to the equivalent API call for a fixed seed, because the spec
round-trips *exactly* onto the dataclasses (``tests/test_experiments_spec.py``
pins this down).

Document layout (YAML shown; JSON is isomorphic)::

    name: small-accuracy-grid        # optional, free-form label
    settings:                        # ExperimentSettings fields
      scale: small
      repetitions: 3
      seed: 2025
      backend: process
    grid:                            # sugar for the 4 grid-axis fields
      datasets: [rdb, syn]
      mechanisms: [fedpem, taps]
      epsilons: [1.0, 2.0, 4.0]
      ks: [10]
    config_overrides:                # MechanismConfig fields forced per cell
      oracle: krr
    dataset_kwargs:                  # forwarded to load_dataset
      dirichlet_beta: 0.5

Unknown keys raise :class:`SpecError` with the valid alternatives — specs
are operator input, so every failure names the offending key and file.
YAML requires PyYAML; JSON always works (``.json`` files, or any file whose
first non-space character is ``{``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.config import MechanismConfig
from repro.experiments.runner import ExperimentSettings
from repro.scenarios.effects import ScenarioError
from repro.scenarios.spec import ScenarioSpec
from repro.utils.validation import check_known_keys

#: Top-level keys a spec document may contain.
SPEC_KEYS: tuple[str, ...] = (
    "name",
    "settings",
    "grid",
    "config_overrides",
    "dataset_kwargs",
    "scenario",
)

#: The ``grid:`` section is sugar for these ExperimentSettings fields.
GRID_KEYS: tuple[str, ...] = ("datasets", "mechanisms", "epsilons", "ks")


class SpecError(ValueError):
    """A sweep spec is malformed; the message names key and source."""


def _check_keys(mapping: Mapping, allowed: tuple[str, ...], *, where: str, source: str):
    check_known_keys(mapping, allowed, where=where, source=source, error=SpecError)


def _mapping_section(
    data: Mapping,
    key: str,
    *,
    source: str,
    allowed: tuple[str, ...] | None = None,
) -> dict:
    """One optional mapping section of a spec document.

    Only a missing/null section defaults to ``{}``: a falsy non-map
    (``load: []``, ``settings: false``) is a spec mistake that must not
    silently drop the operator's configuration.
    """
    section = data.get(key)
    if section is None:
        return {}
    if not isinstance(section, Mapping):
        raise SpecError(
            f"{source}: {key!r} must be a mapping, got {type(section).__name__}"
        )
    section = dict(section)
    if allowed is not None:
        _check_keys(section, allowed, where=key, source=source)
    return section


def _spec_name(data: Mapping, *, default: str, source: str) -> str:
    """The optional free-form ``name:`` (null → default, non-str → error)."""
    name = data.get("name")
    if name is None:
        return default
    if not isinstance(name, str):
        raise SpecError(f"{source}: 'name' must be a string")
    return name


@dataclass(frozen=True)
class SweepSpec:
    """One validated sweep specification.

    ``settings`` already carries the grid axes (they are
    :class:`ExperimentSettings` fields), so running a spec is just
    ``run_sweep(spec.settings, config_overrides=..., dataset_kwargs=...)``.
    """

    settings: ExperimentSettings
    config_overrides: dict = field(default_factory=dict)
    dataset_kwargs: dict = field(default_factory=dict)
    #: Optional scenario-lab block (``repro serve --scenario`` consumes it).
    scenario: ScenarioSpec | None = None
    name: str = "sweep"

    # ------------------------------------------------------------------ #
    # Construction / validation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, source: str = "<spec>") -> "SweepSpec":
        """Validate a parsed spec document into a :class:`SweepSpec`."""
        if not isinstance(data, Mapping):
            raise SpecError(f"{source}: a spec must be a mapping, got {type(data).__name__}")
        _check_keys(data, SPEC_KEYS, where="spec", source=source)

        def _section(key: str) -> dict:
            return _mapping_section(data, key, source=source)

        settings_data = _section("settings")
        grid = _section("grid")
        _check_keys(grid, GRID_KEYS, where="grid", source=source)
        for axis, values in grid.items():
            if axis in settings_data:
                raise SpecError(
                    f"{source}: grid axis {axis!r} also appears under 'settings'; "
                    "specify each axis once"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError(f"{source}: grid axis {axis!r} must be a non-empty list")
            settings_data[axis] = list(values)

        try:
            settings = ExperimentSettings.from_dict(settings_data, source=source)
        except (TypeError, ValueError, KeyError) as exc:
            raise SpecError(f"{source}: invalid settings: {exc}") from exc

        overrides = _section("config_overrides")
        config_fields = tuple(f.name for f in dataclasses.fields(MechanismConfig))
        _check_keys(overrides, config_fields, where="config_overrides", source=source)
        if (
            overrides.get("execution_mode") == "network"
            or overrides.get("gateway") is not None
        ):
            raise SpecError(
                f"{source}: config_overrides cannot request networked "
                'execution (execution_mode="network" / gateway=...) — sweep '
                "cells have no gateway to connect to (use "
                "repro.net.run_over_network or the repro loadgen CLI)"
            )

        dataset_kwargs = _section("dataset_kwargs")
        scenario_data = data.get("scenario")
        scenario = None
        if scenario_data is not None:
            try:
                scenario = ScenarioSpec.from_dict(scenario_data, source=source)
            except ScenarioError as exc:
                raise SpecError(str(exc)) from exc
        name = _spec_name(data, default="sweep", source=source)
        return cls(
            settings=settings,
            config_overrides=overrides,
            dataset_kwargs=dataset_kwargs,
            scenario=scenario,
            name=name,
        )

    def to_dict(self) -> dict:
        """The JSON-safe document form; ``from_dict`` round-trips it."""
        out = {
            "name": self.name,
            "settings": self.settings.to_dict(),
            "config_overrides": dict(self.config_overrides),
            "dataset_kwargs": dict(self.dataset_kwargs),
        }
        # Omitted (not null) when absent, so pre-scenario stores keep
        # their fingerprints and stay resumable.
        if self.scenario is not None:
            out["scenario"] = self.scenario.to_dict()
        return out

    #: Settings fields excluded from the fingerprint: pure execution knobs
    #: (every backend/worker count yields identical records for a fixed
    #: seed), plus the free-form label.  Resuming a killed sweep on a
    #: different backend — or another machine — must therefore work.
    _EXECUTION_ONLY: tuple[str, ...] = ("backend", "max_workers")

    def fingerprint(self) -> str:
        """A stable digest of the grid identity — the resume-compatibility token.

        Two specs with the same fingerprint enumerate the same grid with
        the same seeds, so a run store written under one can be resumed
        under the other.  Execution-only knobs (``backend``,
        ``max_workers``) and the spec ``name`` are excluded: they never
        change what a cell computes.
        """
        doc = self.to_dict()
        doc.pop("name", None)
        for field_name in self._EXECUTION_ONLY:
            doc["settings"].pop(field_name, None)
        canonical = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# File I/O
# --------------------------------------------------------------------------- #
def _parse_text(text: str, *, source: str, fmt: str | None = None) -> Any:
    """Parse YAML or JSON text, auto-detecting when ``fmt`` is None."""
    stripped = text.lstrip()
    if fmt == "json" or (fmt is None and stripped.startswith("{")):
        # A '{' under an explicit yaml fmt is fine — YAML flow style — so
        # the sniff only applies to extension-less/unknown sources.
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{source}: invalid JSON: {exc}") from exc
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - PyYAML is in the image
        raise SpecError(
            f"{source}: parsing YAML requires PyYAML, which is not installed; "
            "write the spec as JSON instead"
        ) from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecError(f"{source}: invalid YAML: {exc}") from exc


def _load_document(path: str | Path, *, kind: str) -> tuple[Path, Any]:
    """Shared loader: existence check, format sniff by suffix, parse."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"{kind} file {path} does not exist")
    fmt = {".json": "json", ".yaml": "yaml", ".yml": "yaml"}.get(path.suffix.lower())
    data = _parse_text(path.read_text(encoding="utf-8"), source=str(path), fmt=fmt)
    return path, data


def load_spec(path: str | Path) -> SweepSpec:
    """Load and validate a sweep spec from a YAML or JSON file."""
    path, data = _load_document(path, kind="spec")
    return SweepSpec.from_dict(data, source=str(path))


def load_scenario_spec(path: str | Path) -> ScenarioSpec:
    """Load a scenario description from a YAML or JSON file.

    Accepts either form ``repro serve --scenario`` documents take: a
    standalone scenario document (top-level ``base:``/``effects:`` keys),
    or a full sweep spec carrying a ``scenario:`` block.
    """
    path, data = _load_document(path, kind="scenario spec")
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{path}: a scenario spec must be a mapping, got {type(data).__name__}"
        )
    if "scenario" in data:
        spec = SweepSpec.from_dict(data, source=str(path))
        if spec.scenario is None:
            raise SpecError(f"{path}: the 'scenario' block is empty")
        return spec.scenario
    try:
        return ScenarioSpec.from_dict(data, source=str(path))
    except ScenarioError as exc:
        raise SpecError(str(exc)) from exc


def save_spec(spec: SweepSpec, path: str | Path) -> Path:
    """Write the resolved spec document (always JSON, always loadable)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    return path


# --------------------------------------------------------------------------- #
# Load-generation specs (the networked runtime's document schema)
# --------------------------------------------------------------------------- #
#: Top-level keys of a loadgen spec document.
LOADGEN_KEYS: tuple[str, ...] = (
    "name",
    "gateway",
    "workload",
    "load",
    "cluster",
    "faults",
)

#: ``cluster:`` keys — the sharded-cluster topology
#: (:mod:`repro.cluster`): how many shard gateways ``repro cluster``
#: launches, and on which host.
LOADGEN_CLUSTER_KEYS: tuple[str, ...] = ("shards", "host")

#: ``gateway:`` keys — constructor knobs of
#: :class:`repro.net.gateway.AggregationGateway`.
LOADGEN_GATEWAY_KEYS: tuple[str, ...] = (
    "connection_credits",
    "max_frame_bytes",
    "telemetry_sample",
    "trace_log",
)

#: ``workload:`` keys — what the simulated clients report.
LOADGEN_WORKLOAD_KEYS: tuple[str, ...] = (
    "dataset",
    "scale",
    "dataset_seed",
    "oracle",
    "epsilon",
    "level",
    "rounds",
    "batch_size",
    "users_per_round",
    "scenario",
)

#: ``load:`` keys — how hard and from where the clients push.
LOADGEN_LOAD_KEYS: tuple[str, ...] = (
    "connections",
    "backend",
    "max_workers",
    "seed",
    "retries",
    "timeout",
    "telemetry",
    "trace_log",
)


@dataclass(frozen=True)
class ClusterSpec:
    """One validated ``cluster:`` section: the shard topology.

    ``shards``/``host`` size the launcher
    (:func:`repro.cluster.launcher.launch_cluster`).  Routing is not
    configurable: batches go to the shards round-robin, and routing
    never changes a merged result.
    """

    shards: int = 2
    host: str = "127.0.0.1"

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, source: str = "<cluster>"
    ) -> "ClusterSpec":
        if not isinstance(data, Mapping):
            raise SpecError(
                f"{source}: 'cluster' must be a mapping, got {type(data).__name__}"
            )
        _check_keys(data, LOADGEN_CLUSTER_KEYS, where="cluster", source=source)
        shards = data.get("shards", 2)
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise SpecError(f"{source}: cluster.shards must be an integer >= 1")
        host = data.get("host", "127.0.0.1")
        if not isinstance(host, str) or not host:
            raise SpecError(f"{source}: cluster.host must be a non-empty string")
        return cls(shards=shards, host=host)

    def to_dict(self) -> dict:
        return {"shards": self.shards, "host": self.host}


@dataclass(frozen=True)
class LoadgenSpec:
    """One validated load-generation document: gateway + workload + load.

    The declarative face of the networked runtime: ``repro serve
    --listen`` reads the ``gateway:`` section, ``repro loadgen`` reads all
    three.  A ``scenario:`` block inside ``workload:`` replays a scenario
    lab arrival stream (:class:`~repro.scenarios.spec.ScenarioSpec`)
    instead of a registry dataset.
    """

    gateway: dict = field(default_factory=dict)
    workload: dict = field(default_factory=dict)
    load: dict = field(default_factory=dict)
    scenario: ScenarioSpec | None = None
    cluster: ClusterSpec | None = None
    #: Parsed ``faults:`` block — a FaultProfile or FaultChain the run
    #: interposes between clients and every shard gateway.
    faults: Any = None
    name: str = "loadgen"

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, source: str = "<loadgen>"
    ) -> "LoadgenSpec":
        if not isinstance(data, Mapping):
            raise SpecError(
                f"{source}: a loadgen spec must be a mapping, got {type(data).__name__}"
            )
        _check_keys(data, LOADGEN_KEYS, where="loadgen spec", source=source)

        def _section(key: str, allowed: tuple[str, ...]) -> dict:
            return _mapping_section(data, key, source=source, allowed=allowed)

        gateway = _section("gateway", LOADGEN_GATEWAY_KEYS)
        workload = _section("workload", LOADGEN_WORKLOAD_KEYS)
        load = _section("load", LOADGEN_LOAD_KEYS)
        scenario = None
        scenario_data = workload.pop("scenario", None)
        if scenario_data is not None:
            try:
                scenario = ScenarioSpec.from_dict(scenario_data, source=source)
            except ScenarioError as exc:
                raise SpecError(str(exc)) from exc
        cluster = None
        if data.get("cluster") is not None:
            cluster = ClusterSpec.from_dict(data["cluster"], source=source)
        faults = None
        if data.get("faults") is not None:
            from repro.faults.profile import FaultSpecError, fault_profile_from_dict

            try:
                faults = fault_profile_from_dict(data["faults"], source=source)
            except FaultSpecError as exc:
                raise SpecError(str(exc)) from exc
        name = _spec_name(data, default="loadgen", source=source)
        return cls(
            gateway=gateway,
            workload=workload,
            load=load,
            scenario=scenario,
            cluster=cluster,
            faults=faults,
            name=name,
        )

    def to_dict(self) -> dict:
        """The JSON-safe document form; ``from_dict`` round-trips it."""
        workload = dict(self.workload)
        if self.scenario is not None:
            workload["scenario"] = self.scenario.to_dict()
        out = {
            "name": self.name,
            "gateway": dict(self.gateway),
            "workload": workload,
            "load": dict(self.load),
        }
        if self.cluster is not None:
            out["cluster"] = self.cluster.to_dict()
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out

    def fingerprint(self) -> str:
        """Stable digest of the full document (results provenance token)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------ #
    # Consumer-side views
    # ------------------------------------------------------------------ #
    def gateway_kwargs(self) -> dict:
        """Constructor keywords for :class:`~repro.net.gateway.AggregationGateway`."""
        return dict(self.gateway)

    def loadgen_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.net.loadgen.run_loadgen`.

        Spec keys map one-to-one except ``load.backend/max_workers/seed``,
        which keep their :func:`run_loadgen` parameter names.
        """
        kwargs = dict(self.workload)
        kwargs.update(self.load)
        if self.scenario is not None:
            kwargs["scenario"] = self.scenario
        if self.faults is not None:
            kwargs["faults"] = self.faults
        return kwargs

    def cluster_kwargs(self) -> dict:
        """Launcher keywords for :func:`repro.cluster.launcher.launch_cluster`."""
        if self.cluster is None:
            return {}
        return {"n_shards": self.cluster.shards, "host": self.cluster.host}


def load_loadgen_spec(path: str | Path) -> LoadgenSpec:
    """Load and validate a loadgen spec from a YAML or JSON file."""
    path, data = _load_document(path, kind="loadgen spec")
    return LoadgenSpec.from_dict(data, source=str(path))
