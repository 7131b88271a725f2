"""The robustness harness: drive a scenario through sliding-window discovery.

:func:`run_scenario` is the scenario lab's end-to-end loop: it streams a
scenario's arrival batches into a
:class:`~repro.service.streaming.SlidingWindowDiscovery` tracker (every
pass runs through the aggregation service, so wire bits are exact) and
scores each snapshot against the scenario's exact moving ground truth.
The output is one tidy record per snapshot — time-resolved
precision/recall/F1, window wire bits, poison counts, steps since the
last drift event — plus one record per drift event with its detection
latency.  Records are JSON-safe and contain no wall-clock values, so two
same-seed runs are bit-identical (persisted stores included).

Seeds follow the repo contract: the run seed fans out into one tracker
seed and one stream seed up front, so tracker passes and arrival sampling
are independent streams of the same root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MechanismConfig
from repro.metrics.robustness import detection_latency, score_series
from repro.scenarios.scenario import Scenario
from repro.scenarios.spec import ScenarioSpec
from repro.service.streaming import SlidingWindowDiscovery
from repro.utils.rng import RandomState, as_generator, spawn_seeds
from repro.utils.tables import TextTable


@dataclass
class ScenarioReport:
    """Everything one :func:`run_scenario` call measured."""

    scenario: str
    config: dict = field(default_factory=dict)
    #: One JSON-safe record per discovery snapshot (see docs/reproducing.md).
    records: list = field(default_factory=list)
    #: One record per drift event: ``event_step``/``detected_step``/``latency_steps``.
    events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": dict(self.config),
            "records": [dict(r) for r in self.records],
            "events": [dict(e) for e in self.events],
        }

    def render(self) -> str:
        """The per-snapshot robustness table plus drift-event summary."""
        table = TextTable(
            [
                "step",
                "users",
                "precision",
                "recall",
                "F1",
                "since drift",
                "poisoned",
                "upload (kB)",
            ]
        )
        for r in self.records:
            since = r["since_drift"]
            table.add_row(
                [
                    r["step"],
                    r["window_users"],
                    r["precision"],
                    r["recall"],
                    r["f1"],
                    "-" if since is None else since,
                    r["n_poisoned"],
                    r["upload_bits"] / 8e3,
                ]
            )
        title = "scenario: {name} oracle={oracle} eps={epsilon:g} window={window_batches} stride={stride}".format(
            name=self.scenario, **{
                k: self.config[k]
                for k in ("oracle", "epsilon", "window_batches", "stride")
            }
        )
        lines = [table.render(title=title)]
        for event in self.events:
            if event["latency_steps"] is None:
                lines.append(
                    f"drift @ step {event['event_step']}: never re-detected "
                    f"(recall stayed below {self.config.get('detection_recall')})"
                )
            else:
                lines.append(
                    f"drift @ step {event['event_step']}: detected @ step "
                    f"{event['detected_step']} (latency {event['latency_steps']} steps)"
                )
        return "\n".join(lines)


def run_scenario(
    scenario: Scenario,
    *,
    config: MechanismConfig | None = None,
    epsilon: float = 4.0,
    oracle: str = "krr",
    granularity: int | None = None,
    window_batches: int = 4,
    stride: int = 1,
    seed: RandomState = 0,
    store=None,
    detection_recall: float = 0.5,
    defense: str | None = None,
    defense_fraction: float = 0.25,
    report_batch_size: int | None = None,
    name: str | None = None,
) -> ScenarioReport:
    """Run one scenario through the tracker and score every snapshot.

    Parameters
    ----------
    scenario:
        The workload (typically ``ScenarioSpec.build()``).
    config:
        Full protocol configuration; when given it must carry the
        scenario's ``n_bits``.  The remaining protocol knobs
        (``epsilon``/``oracle``/``granularity``/``defense``/
        ``report_batch_size``) build one when it is ``None``.
    window_batches / stride:
        Tracker cadence (see :class:`SlidingWindowDiscovery`).
    seed:
        Run seed; two equal-seed runs produce bit-identical records.
    store:
        Optional sink with an ``append(record)`` method — e.g.
        :class:`repro.experiments.store.ScenarioSnapshotStore` — receiving
        each snapshot record the moment its pass completes.
    detection_recall:
        Recall bar a snapshot must reach to count as having re-detected
        the truth after a drift event.
    defense / defense_fraction:
        Robust shard-merge policy for the tracker's aggregation passes
        (see :mod:`repro.faults.defense`); the knob the adversary goldens
        flip to compare attacked runs with and without the defense.
    report_batch_size:
        Wire-batch bound for the tracker's service passes — the defense's
        aggregation sources; small batches give the robust merge more
        sources to trim.
    """
    if config is None:
        levels = granularity if granularity is not None else min(4, scenario.n_bits)
        config = MechanismConfig(
            k=scenario.k,
            epsilon=epsilon,
            n_bits=scenario.n_bits,
            granularity=min(levels, scenario.n_bits),
            oracle=oracle,
            simulation_mode="per_user",
            defense=defense,
            defense_fraction=defense_fraction,
            report_batch_size=report_batch_size,
        )
    elif config.n_bits != scenario.n_bits:
        raise ValueError(
            f"config.n_bits ({config.n_bits}) must match the scenario's "
            f"item domain ({scenario.n_bits} bits)"
        )
    # Mirrors ScenarioSpec's document-level check: explicit overrides
    # (e.g. `repro serve --window`) must not silently yield a run with
    # zero snapshots.
    if window_batches > scenario.n_steps:
        raise ValueError(
            f"window_batches ({window_batches}) exceeds the scenario's "
            f"n_steps ({scenario.n_steps}); the window would never fill"
        )
    gen = as_generator(seed)
    tracker_seed, stream_seed = spawn_seeds(gen, 2)
    tracker = SlidingWindowDiscovery(
        config,
        window_batches=window_batches,
        stride=stride,
        rng=tracker_seed,
        top_k=scenario.k,
    )
    drift_events = scenario.drift_steps()
    records: list[dict] = []
    for batch in scenario.iter_batches(stream_seed):
        snapshot = tracker.push(batch.items)
        if snapshot is None:
            continue
        scores = score_series(
            [(snapshot.step, snapshot.heavy_hitters)],
            {snapshot.step: batch.true_top_k},
        )[0]
        past_events = [s for s in drift_events if s <= snapshot.step]
        record = {
            **scores,
            "window_users": int(snapshot.n_users),
            "since_drift": snapshot.step - past_events[-1] if past_events else None,
            "n_poisoned": int(batch.n_poisoned),
            "upload_bits": int(snapshot.upload_bits),
            "broadcast_bits": int(snapshot.broadcast_bits),
            "heavy_hitters": [int(item) for item in snapshot.heavy_hitters],
            "true_top_k": [int(item) for item in batch.true_top_k],
        }
        records.append(record)
        if store is not None:
            store.append(record)
    events = []
    scored = [(r["step"], r["recall"]) for r in records]
    for event_step in drift_events:
        latency = detection_latency(event_step, scored, threshold=detection_recall)
        events.append(
            {
                "event_step": int(event_step),
                "detected_step": None if latency is None else int(event_step + latency),
                "latency_steps": latency,
            }
        )
    report_config = {
        "epsilon": float(config.epsilon),
        "oracle": config.oracle,
        "granularity": int(config.granularity),
        "n_bits": int(config.n_bits),
        "k": int(scenario.k),
        "window_batches": int(window_batches),
        "stride": int(stride),
        "detection_recall": float(detection_recall),
        "n_steps": int(scenario.n_steps),
        "batch_size": int(scenario.batch_size),
    }
    if config.defense is not None:
        # Conditional so undefended reports stay byte-identical to those
        # written before the defense existed.
        report_config["defense"] = config.defense
        report_config["defense_fraction"] = float(config.defense_fraction)
    return ScenarioReport(
        scenario=name or "scenario",
        config=report_config,
        records=records,
        events=events,
    )


def run_scenario_spec(
    spec: ScenarioSpec,
    *,
    epsilon: float = 4.0,
    oracle: str = "krr",
    granularity: int | None = None,
    window_batches: int | None = None,
    stride: int | None = None,
    seed: RandomState = 0,
    store=None,
    detection_recall: float = 0.5,
    defense: str | None = None,
    defense_fraction: float = 0.25,
    report_batch_size: int | None = None,
) -> ScenarioReport:
    """Build and run a declarative spec (what ``repro serve --scenario`` calls).

    The spec's tracker cadence is the default; explicit
    ``window_batches``/``stride`` override it.
    """
    return run_scenario(
        spec.build(),
        epsilon=epsilon,
        oracle=oracle,
        granularity=granularity,
        window_batches=window_batches if window_batches is not None else spec.window_batches,
        stride=stride if stride is not None else spec.stride,
        seed=seed,
        store=store,
        detection_recall=detection_recall,
        defense=defense,
        defense_fraction=defense_fraction,
        report_batch_size=report_batch_size,
        name=spec.name,
    )
