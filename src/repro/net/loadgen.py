"""Multiprocess load generation against a live aggregation gateway.

:func:`run_loadgen` drives ``connections`` independent client pools — each
on its own :class:`~repro.cluster.coordinator.ClusterConnection` (one
gateway is a one-shard cluster), fanned out over an execution backend
(:mod:`repro.engine`; ``"process"`` gives true multi-core clients, the
realistic load shape) — through full frequency-oracle rounds against a
gateway.  Each round is a :class:`~repro.service.server.ServiceRoundRunner`
round over a :class:`~repro.cluster.coordinator.ClusterCoordinator`
wrapping the pool's connection: the same loop a networked mechanism
runs.  It aggregates:

* **throughput** — end-to-end reports/second across all pools (perturb +
  encode + socket + gateway decode + shard accumulate);
* **latency** — send→ack round trip of every report batch, summarised as
  p50/p95/p99/mean/max;
* **exact wire accounting** — upload/broadcast bits from the round
  runners' message logs, plus the gateway's own totals for
  cross-checking.

Workloads come from the same seams the rest of the repo uses: a registry
dataset (every party becomes a :class:`~repro.service.clients.ClientPool`,
assigned round-robin to connections) or a declarative scenario spec
(:class:`~repro.scenarios.spec.ScenarioSpec`), whose arrival stream each
connection replays through :meth:`ClientPool.from_arrivals` with its own
spawned seed.  Report randomness follows the repo-wide contract: one seed
per (connection, round), fanned out before anything streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAULT_REPORT_BATCH_SIZE
from repro.engine import get_backend
from repro.federation.transcript import FederationTranscript
from repro.ldp.registry import make_oracle
from repro.net.client import parse_cluster_addresses
from repro.net.framing import WireFormatError
from repro.obs.registry import (
    METRICS_SCHEMA,
    MetricsRegistry,
    latency_summary,
    merge_snapshots,
)
from repro.obs.trace import Tracer
from repro.service.clients import ClientPool
from repro.service.server import ServiceError, ServiceRoundRunner
from repro.trie.candidate_domain import CandidateDomain
from repro.utils.rng import RandomState, as_generator, spawn_seeds
from repro.utils.tables import TextTable
from repro.utils.validation import check_positive


#: Failures a fault-injected round may legitimately surface: structured
#: service errors, torn/garbled frames, and transport-level breakage.
#: Anything else (assertion, bug) propagates — chaos must never mask it.
RETRYABLE_ERRORS: tuple = (ServiceError, WireFormatError, ConnectionError, OSError, EOFError)


@dataclass(frozen=True)
class _PoolTask:
    """Everything one load-generating connection needs (picklable)."""

    address: str
    name: str
    items: np.ndarray
    n_bits: int
    oracle: str
    epsilon: float
    level: int
    rounds: int
    batch_size: int
    users_per_round: int | None
    top: int
    timeout: float
    retries: int = 0
    telemetry: bool = False
    trace: bool = False


def _run_round(task: _PoolTask, pool: ClientPool, domain, server, round_seed) -> dict:
    """One full frequency-oracle round through ``server``, a coordinator.

    Everything random derives from ``round_seed``, so replaying the same
    seed on a fresh connection reproduces the identical report stream —
    the property the fault-retry loop relies on for bit-identity.  The
    round streams through :class:`~repro.service.server.ServiceRoundRunner`,
    and the wire counters come from its message log.
    """
    round_gen = np.random.default_rng(round_seed)
    items = pool.items
    if task.users_per_round is not None:
        items = items[pool.draw_users(task.users_per_round, round_gen)]
    runner = ServiceRoundRunner(
        server=server, party=task.name, batch_size=task.batch_size
    )
    estimate = runner.run_round(
        make_oracle(task.oracle, task.epsilon),
        domain.encode_items(items, task.n_bits),
        domain,
        round_gen,
        mode="per_user",
    )
    log = FederationTranscript(messages=runner.drain_messages())
    counts = estimate.estimated_counts[: domain.n_candidates]
    order = np.argsort(counts)[::-1][: task.top]
    return {
        "n_reports": int(items.size),
        "n_batches": len(log.messages_of_kind("report_batch")),
        "upload_bits": log.upload_bits(),
        "broadcast_bits": log.broadcast_bits(),
        "top_prefixes": [[domain.prefixes[i], float(counts[i])] for i in order],
    }


def _drive_pool(task: _PoolTask, seed: int) -> dict:
    """Stream every round of one pool; module-level so process backends pickle it."""
    # Lazy cluster import — repro.net loads this module eagerly, and the
    # cluster layer sits on top of it, not under it.
    from repro.cluster.coordinator import ClusterConnection, ClusterCoordinator

    domain = CandidateDomain.full_domain(task.level)
    pool = ClientPool(task.items, name=task.name)
    round_seeds = spawn_seeds(np.random.default_rng(seed), task.rounds)
    n_reports = n_batches = upload_bits = broadcast_bits = 0
    n_retries = 0
    latencies: list[float] = []
    top_prefixes: list[list] = []
    # Telemetry/tracing live for the whole pool run — reconnects after a
    # fault keep accumulating into the same registry and span list, which
    # both ship back to the parent as plain picklable dicts.
    telemetry = MetricsRegistry() if task.telemetry else None
    tracer = Tracer() if task.trace else None

    def _open():
        # One gateway is a one-shard cluster: the same client either way.
        return ClusterConnection(
            task.address, timeout=task.timeout, telemetry=telemetry, tracer=tracer
        )

    connection = _open()
    try:
        for round_seed in round_seeds:
            for attempt in range(int(task.retries) + 1):
                try:
                    stats = _run_round(
                        task, pool, domain, ClusterCoordinator(connection), round_seed
                    )
                    break
                except RETRYABLE_ERRORS:
                    # A fault mid-round leaves unknown state on both the
                    # connection and the gateway round; abandon both and
                    # replay the round from its own seed on a fresh
                    # connection.  Latencies the failed attempt measured
                    # are real round trips, so they stay in the summary;
                    # the counters only move on success, so a run that
                    # converges is bit-identical to a fault-free one.
                    latencies.extend(connection.latencies)
                    connection.close()
                    if attempt >= int(task.retries):
                        raise
                    n_retries += 1
                    connection = _open()
            n_reports += stats["n_reports"]
            n_batches += stats["n_batches"]
            upload_bits += stats["upload_bits"]
            broadcast_bits += stats["broadcast_bits"]
            top_prefixes = stats["top_prefixes"]
        latencies.extend(connection.latencies)
    finally:
        connection.close()
    result = {
        "pool": task.name,
        "n_users": pool.n_users,
        "n_reports": n_reports,
        "n_batches": n_batches,
        "upload_bits": upload_bits,
        "broadcast_bits": broadcast_bits,
        "latencies": latencies,
        "top_prefixes": top_prefixes,
        "n_retries": n_retries,
    }
    if telemetry is not None:
        result["telemetry"] = telemetry.snapshot()
    if tracer is not None:
        result["spans"] = tracer.drain()
    return result


#: One shared home for the p50/p95/p99 math (satellite of the obs layer):
#: the summary is byte-identical to the private helper this module carried.
_latency_summary = latency_summary


@dataclass
class LoadgenReport:
    """Everything one :func:`run_loadgen` run measured."""

    address: str
    workload: str
    oracle: str
    epsilon: float
    level: int
    connections: int
    rounds: int
    batch_size: int
    backend: str
    shards: int
    elapsed_seconds: float
    n_reports: int
    n_batches: int
    reports_per_sec: float
    upload_bits: int
    broadcast_bits: int
    latency_ms: dict
    per_connection: list[dict] = field(default_factory=list)
    gateway: dict | None = None
    retries: int = 0
    n_retries: int = 0
    faults: dict | None = None
    telemetry: dict | None = None
    trace_log: str | None = None

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in self.__dataclass_fields__}
        # Raw per-batch latencies are working data, not report payload;
        # a zero retry count is noise outside fault runs.
        out["per_connection"] = [
            {
                k: v
                for k, v in entry.items()
                if k != "latencies" and (k != "n_retries" or v)
            }
            for entry in self.per_connection
        ]
        # Fault fields only appear on fault runs, so clean-run reports stay
        # byte-identical to those written before the chaos layer existed.
        if self.faults is None:
            del out["faults"]
            if self.retries == 0 and self.n_retries == 0:
                del out["retries"]
                del out["n_retries"]
        # And for the observability layer: telemetry-off reports carry
        # neither field and stay byte-identical to pre-telemetry reports.
        if self.telemetry is None:
            del out["telemetry"]
        if self.trace_log is None:
            del out["trace_log"]
        return out

    def render(self) -> str:
        """A per-connection table plus the headline throughput, printable."""
        table = TextTable(
            [
                "pool",
                "reports",
                "batches",
                "upload (kB)",
                "p50 (ms)",
                "p99 (ms)",
                "top prefixes",
            ]
        )
        for entry in self.per_connection:
            summary = _latency_summary(entry.get("latencies", []))
            top = " ".join(p for p, _ in entry["top_prefixes"][:3])
            table.add_row(
                [
                    entry["pool"],
                    entry["n_reports"],
                    entry["n_batches"],
                    entry["upload_bits"] / 8e3,
                    summary["p50"],
                    summary["p99"],
                    top,
                ]
            )
        cluster = f" shards={self.shards}" if self.shards > 1 else ""
        chaos = (
            f" faults={self.faults['n_faults']} retries={self.n_retries}"
            if self.faults is not None
            else ""
        )
        title = (
            f"loadgen: {self.workload} -> {self.address} "
            f"oracle={self.oracle} eps={self.epsilon:g} level={self.level} "
            f"connections={self.connections} rounds={self.rounds}{cluster}{chaos} | "
            f"{self.reports_per_sec:,.0f} reports/s, "
            f"p99 {self.latency_ms['p99']:.1f} ms"
        )
        return table.render(title=title)


def run_loadgen(
    address: str,
    *,
    dataset=None,
    scale: str = "small",
    dataset_seed: int = 2025,
    scenario=None,
    connections: int = 2,
    rounds: int = 1,
    oracle: str = "krr",
    epsilon: float = 4.0,
    level: int = 6,
    batch_size: int = DEFAULT_REPORT_BATCH_SIZE,
    users_per_round: int | None = None,
    top: int = 10,
    backend: str | None = "thread",
    max_workers: int | None = None,
    seed: RandomState = 0,
    timeout: float = 120.0,
    include_gateway_stats: bool = True,
    faults=None,
    retries: int = 0,
    telemetry: bool = False,
    trace_log=None,
) -> LoadgenReport:
    """Drive simulated client pools against a gateway; measure everything.

    Parameters
    ----------
    address:
        ``HOST:PORT`` of a listening gateway — or a **comma-separated
        list** (or iterable) of them, which drives a shard cluster.  Every
        pool gets a :class:`~repro.cluster.coordinator.ClusterConnection`
        sending its batches to the shards round-robin and merging at the
        round-close barrier; one gateway is a one-shard cluster.
    dataset / scale / dataset_seed:
        Registry dataset (name or a loaded
        :class:`~repro.datasets.base.FederatedDataset`) whose parties
        become client pools, assigned round-robin to connections.
        Ignored when ``scenario`` is given; defaults to ``"rdb"``.
    scenario:
        A :class:`~repro.scenarios.spec.ScenarioSpec`: every connection
        replays the scenario's arrival stream (own spawned seed) through
        :meth:`ClientPool.from_arrivals`.
    connections:
        Concurrent client pools, each on its own TCP connection.
    rounds:
        Full frequency-oracle rounds each pool streams.
    level:
        Prefix length of the round domain, capped at the workload's
        ``n_bits``.
    users_per_round:
        Reports sampled per round (default: every pool user reports once).
    backend / max_workers:
        Engine backend the pools run on (``"process"`` for true
        multi-core load generation; ``"serial"`` is the deterministic
        debug mode).
    seed:
        Run seed; one child seed per (connection, round) is fanned out
        before anything streams.
    faults:
        A :class:`~repro.faults.profile.FaultProfile` / ``FaultChain``
        (or its mapping/list document form): every shard address gets a
        :class:`~repro.faults.proxy.FaultProxy` in front of it applying
        the profile — shard ``i`` under ``shifted(i)`` so fault schedules
        decorrelate across shards — and all client traffic runs through
        the proxies.  The gateway-stats probe bypasses them.
    retries:
        Per-round retry budget for fault-shaped failures
        (:data:`RETRYABLE_ERRORS`): a failed round is replayed from its
        own seed on a fresh connection, so a run that converges within
        the budget is bit-identical to a fault-free run.
    telemetry:
        Collect an :mod:`repro.obs` metrics picture of the run: every
        worker's coordinator registry and every fault proxy's action
        counters merge (shard algebra) into ``report.telemetry``, and —
        when gateway stats are probed — the gateway/cluster's own
        wire-scraped metrics document lands under
        ``telemetry["gateway"]``.  Observe-only: a fixed-seed run is
        bit-identical with it on or off.
    trace_log:
        Path of a JSONL span log.  Every worker traces its client spans
        (``client.round`` / ``client.batch`` / ``cluster.merge_barrier``)
        with the wire context stamped on outgoing frames, and the parent
        appends all finished spans here.
    """
    check_positive("connections", connections)
    check_positive("rounds", rounds)
    check_positive("level", level)
    check_positive("batch_size", batch_size)
    check_positive("retries", retries, strict=False)
    if users_per_round is not None:
        check_positive("users_per_round", users_per_round)
    shard_addresses = parse_cluster_addresses(address)
    gen = as_generator(seed)

    if scenario is not None:
        built = scenario.build()
        n_bits = built.n_bits
        level = min(int(level), n_bits)
        replay_seeds = spawn_seeds(gen, connections)
        pools = [
            (
                f"{getattr(scenario, 'name', 'scenario')}#{index}",
                ClientPool.from_arrivals(
                    built.iter_batches(replay_seeds[index]), name=f"scenario#{index}"
                ).items,
            )
            for index in range(connections)
        ]
        workload = f"scenario:{getattr(scenario, 'name', 'scenario')}"
    else:
        if dataset is None:
            dataset = "rdb"
        if isinstance(dataset, str):
            from repro.datasets.registry import load_dataset

            dataset = load_dataset(dataset, scale=scale, seed=dataset_seed)
        n_bits = dataset.n_bits
        level = min(int(level), n_bits)
        parties = dataset.parties
        pools = [
            (
                f"{parties[index % len(parties)].name}#{index}",
                parties[index % len(parties)].items,
            )
            for index in range(connections)
        ]
        workload = f"dataset:{dataset.name}"

    # Chaos seam: interpose one fault proxy per shard address, decorrelated
    # by shard index, and point every pool at the proxies.  Lazy import —
    # the faults layer sits on top of the net layer, not under it.
    proxies: list = []
    fault_chain = None
    task_address = ",".join(shard_addresses)
    if faults is not None:
        from repro.faults.profile import as_chain, fault_profile_from_dict
        from repro.faults.proxy import FaultProxy

        if isinstance(faults, (dict, list, tuple)):
            faults = fault_profile_from_dict(faults, source="<loadgen faults>")
        fault_chain = as_chain(faults)
        proxies = [
            FaultProxy(shard_address, fault_chain.shifted(index))
            for index, shard_address in enumerate(shard_addresses)
        ]
        task_address = ",".join(proxy.address for proxy in proxies)

    tasks = [
        _PoolTask(
            address=task_address,
            name=name,
            items=np.asarray(items, dtype=np.int64),
            n_bits=int(n_bits),
            oracle=oracle,
            epsilon=float(epsilon),
            level=int(level),
            rounds=int(rounds),
            batch_size=int(batch_size),
            users_per_round=users_per_round,
            top=int(top),
            timeout=float(timeout),
            retries=int(retries),
            telemetry=bool(telemetry),
            trace=trace_log is not None,
        )
        for name, items in pools
    ]

    engine = get_backend(backend, max_workers)
    start = time.perf_counter()
    try:
        with engine:
            results = engine.map_seeded(_drive_pool, tasks, rng=gen)
    finally:
        for proxy in proxies:
            proxy.close()
    elapsed = time.perf_counter() - start

    faults_summary = None
    if fault_chain is not None:
        injected: dict[str, int] = {}
        for proxy in proxies:
            for action, count in proxy.counters.items():
                injected[action] = injected.get(action, 0) + count
        faults_summary = {
            "profile": fault_chain.to_dict(),
            "injected": dict(sorted(injected.items())),
            "n_faults": sum(injected.values()),
        }

    # Pull telemetry and spans out of the worker results before they land
    # in per_connection — they aggregate at report level, like latencies.
    telemetry_doc = None
    if telemetry:
        snapshots = [r.pop("telemetry") for r in results if "telemetry" in r]
        snapshots += [proxy.telemetry.snapshot() for proxy in proxies]
        telemetry_doc = {
            "schema": METRICS_SCHEMA,
            "source": "loadgen",
            "metrics": merge_snapshots(*snapshots),
        }
    if trace_log is not None:
        import json

        with open(trace_log, "a", encoding="utf-8") as fp:
            for entry in results:
                for record in entry.pop("spans", []):
                    fp.write(
                        json.dumps(record, sort_keys=True, separators=(",", ":"))
                        + "\n"
                    )

    n_reports = sum(r["n_reports"] for r in results)
    all_latencies = [lat for r in results for lat in r["latencies"]]
    gateway_stats = None
    if include_gateway_stats:
        # The probe asks the real gateway, never the (now closed) proxies,
        # and scrapes each shard once: the stats ride in the metrics.
        from repro.cluster.coordinator import ClusterConnection, cluster_stats

        with ClusterConnection(shard_addresses, timeout=timeout) as probe:
            document = probe.metrics()
        gateway_stats = cluster_stats(document)
        if telemetry_doc is not None:
            telemetry_doc["gateway"] = document
    return LoadgenReport(
        address=",".join(shard_addresses),
        workload=workload,
        oracle=oracle,
        epsilon=float(epsilon),
        level=int(level),
        connections=int(connections),
        rounds=int(rounds),
        batch_size=int(batch_size),
        backend=engine.name,
        shards=len(shard_addresses),
        elapsed_seconds=round(elapsed, 4),
        n_reports=n_reports,
        n_batches=sum(r["n_batches"] for r in results),
        reports_per_sec=round(n_reports / max(elapsed, 1e-9), 1),
        upload_bits=sum(r["upload_bits"] for r in results),
        broadcast_bits=sum(r["broadcast_bits"] for r in results),
        latency_ms=_latency_summary(all_latencies),
        per_connection=results,
        gateway=gateway_stats,
        retries=int(retries),
        n_retries=sum(r.get("n_retries", 0) for r in results),
        faults=faults_summary,
        telemetry=telemetry_doc,
        trace_log=None if trace_log is None else str(trace_log),
    )
