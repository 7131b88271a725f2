"""The benchmark's workloads: ``discovery``, ``ingest`` and ``rounds``.

Every workload is a closed loop driven from this one process: the next
operation starts only when the previous one has been answered.  Each
follows the same life cycle:

* :meth:`Workload.setup` — the first cold starts (the median of all of
  them is ``setup_s``) and input generation from the workload seed;
* :meth:`Workload.check` — correctness checks, outside any timed window;
* :meth:`Workload.measure` — the untraced timed window, which yields the
  end-to-end metrics;
* :meth:`Workload.cold_start` — the rest of the cold starts, after the window;
* :meth:`Workload.replay` — the window's first units again with spans
  recorded (traced runs only), which yields the per-layer metrics.

Every operation in a timed window is counted as attempted before it is
tried; one that raises counts as failed (with the rest of its round) and
ends the window, and the run still reports what it completed, also when
that is nothing.
"""

from __future__ import annotations

import itertools
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from procs import Gateway, Placement, cpu_seconds, peak_rss_mb, reset_peak_rss, timed_child
from repro import AggregationServer, MechanismConfig, TAPSMechanism, f1_score, load_dataset
from repro.cluster import ClusterConnection
from repro.ldp.registry import make_oracle
from repro.net import GatewayConnection
from repro.service import RoundBroadcast, ServiceError, iter_perturbed_batches, protocol
from repro.trie.candidate_domain import CandidateDomain

#: Cold starts per run, before and after the timed window; ``setup_s`` is
#: the median of all of them.  Single starts vary widely, and the host's
#: speed drifts over tens of seconds, so starts on both sides of the window
#: weigh a slow stretch less than starts taken back to back.
COLD_STARTS_BEFORE = 4
COLD_STARTS_AFTER = 4
#: Fresh-interpreter probes behind ``cli.import_s``, and behind
#: ``cli.serve_ready_s`` on ``discovery`` (which starts no gateway itself).
CLI_PROBES = 3
#: A traced run replays the window's first units worth this many seconds.
REPLAY_S = 6.0


class CheckFailed(Exception):
    """An output of the program differs from what it must be."""


@dataclass
class Ledger:
    """Operations (discoveries, rounds, batches) attempted and failed."""

    attempted: int = 0
    failed: int = 0

    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted


@dataclass
class Window:
    """What one timed window measured."""

    #: Wall time of each unit (discovery or round), in order.
    unit_times: list = field(default_factory=list)
    wall_s: float = 0.0
    #: End-to-end values; one that needs a completed unit is absent when
    #: none completed.
    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)


def top_k(counts: np.ndarray, k: int) -> list[int]:
    """Indices of the ``k`` largest counts, ties broken by index."""
    counts = np.asarray(counts)
    return [int(i) for i in np.lexsort((np.arange(counts.size), -counts))[:k]]


def _fail(ledger: Ledger, n: int) -> None:
    traceback.print_exc()
    ledger.failed += n


class Workload:
    name = ""

    def __init__(self, seed: int, placement: Placement):
        self.seed = int(seed)
        self.placement = placement
        self.ledger = Ledger()
        self.setup_times: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def cold_start(self) -> float:
        """One more cold start to ready; returns its time (one ``setup_s`` sample)."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def reset_peak_rss(self) -> None:
        """Start the peak-RSS readings at the timed window."""
        reset_peak_rss()

    def measure(self, seconds: float) -> Window:
        raise NotImplementedError

    def _unit(self, i: int) -> None:
        """Run unit ``i`` of the last window again."""
        raise NotImplementedError

    def replay(self, window: Window, recorder) -> float:
        """Redo the window's first REPLAY_S seconds of units with spans on.

        Returns traced / untraced time of those units, ``obs.trace_overhead``.
        """
        from spans import instrument

        n, untraced = 0, 0.0
        while n < len(window.unit_times) and untraced < REPLAY_S:
            untraced += window.unit_times[n]
            n += 1
        instrument(recorder)
        start = time.perf_counter()
        try:
            for i in range(n):
                self._unit(i)
        finally:
            traced = time.perf_counter() - start
            recorder.restore()
        return traced / untraced

    def gateway_ready_times(self) -> list[float]:
        """Spawn → ready times of ``repro serve --listen`` (``cli.serve_ready_s``)."""
        times = []
        for _ in range(CLI_PROBES):
            gateway = Gateway(self.placement)
            times.append(gateway.ready_s)
            gateway.stop()
        return times

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# discovery: the paper's own task, in process
# ---------------------------------------------------------------------- #
class Discovery(Workload):
    """Full TAPS discoveries with the OLH oracle through the in-process service.

    Chosen because it is the paper's task and its time is almost all in
    ``core`` and ``ldp`` (mostly the privacy accountant's per-user
    records, then the OLH support-count scan).  It opens no socket, so a
    change to ``net`` or ``cluster`` should not move it.
    """

    name = "discovery"
    DATASET = "rdb"
    SCALE = "large"
    #: The dataset is fixed, like the paper's; the workload seed picks the
    #: mechanism seeds (the LDP noise).  A dataset drawn per seed changed
    #: the work of a discovery, and so its time, from run to run.
    DATASET_SEED = 2025
    K = 20
    EPSILON = 4.0
    N_SEEDS = 16

    def __init__(self, seed, placement):
        super().__init__(seed, placement)
        states = np.random.SeedSequence([self.seed, 1]).generate_state(self.N_SEEDS)
        self.run_seeds = [int(s) for s in states]

    def cold_start(self):
        code = (
            "import repro\n"
            f"repro.load_dataset({self.DATASET!r}, scale={self.SCALE!r}, "
            f"seed={self.DATASET_SEED})\n"
            "print('ready', flush=True)\n"
        )
        return timed_child(self.placement, code, until_line="ready")

    def setup(self):
        self.setup_times = [self.cold_start() for _ in range(COLD_STARTS_BEFORE)]
        self.dataset = load_dataset(self.DATASET, scale=self.SCALE, seed=self.DATASET_SEED)
        self.truth = self.dataset.true_top_k(self.K)
        self.memory_config = MechanismConfig(
            k=self.K,
            epsilon=self.EPSILON,
            n_bits=self.dataset.n_bits,
            oracle="olh",
            simulation_mode="per_user",
        )
        self.config = self.memory_config.with_updates(execution_mode="service")

    def _discover(self, rng: int, config=None):
        return TAPSMechanism(config or self.config).run(self.dataset, rng=rng)

    @staticmethod
    def _summary(result) -> dict:
        """Everything a fixed seed must reproduce exactly."""
        transcript = result.transcript
        return {
            "heavy_hitters": list(result.heavy_hitters),
            "estimated_counts": dict(result.estimated_counts),
            "upload_bits": result.upload_bits(),
            "reports": result.accountant.n_reports(),
            "rounds": len(transcript.messages_of_kind("service_round_open")),
            "batches": len(transcript.messages_of_kind("report_batch")),
        }

    def check(self):
        """Service mode ≡ memory mode for the first seed (also the warm-up)."""
        seed = self.run_seeds[0]
        memory = self._discover(seed, self.memory_config)
        service = self._discover(seed)
        if service.heavy_hitters != memory.heavy_hitters:
            raise CheckFailed("discovery: service and memory heavy hitters differ")
        if service.estimated_counts != memory.estimated_counts:
            raise CheckFailed("discovery: service and memory estimated counts differ")
        for name, record in memory.party_records.items():
            if service.party_records[name].levels != record.levels:
                raise CheckFailed(f"discovery: party {name} level estimates differ")
        # Memory mode does not log per-user reports; every other upload
        # must match bit for bit.
        report_bits = sum(
            m.payload_bits for m in service.transcript.messages_of_kind("report_batch")
        )
        if service.upload_bits() - report_bits != memory.upload_bits():
            raise CheckFailed("discovery: service and memory upload bits differ")
        self.reference = self._summary(service)

    def measure(self, seconds):
        times = []
        self.timed_seeds = []
        summaries: dict[int, dict] = {}
        window = Window()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for seed in itertools.cycle(self.run_seeds):
            first_pass_done = len(summaries) == len(self.run_seeds)
            if first_pass_done and time.perf_counter() - start >= seconds:
                break
            self.ledger.attempted += 1
            t0 = time.perf_counter()
            try:
                result = self._discover(seed)
            except Exception:
                _fail(self.ledger, 1)
                break
            times.append(time.perf_counter() - t0)
            self.timed_seeds.append(seed)
            summary = self._summary(result)
            self.ledger.attempted += summary["rounds"] + summary["batches"]
            expected = summaries.setdefault(seed, summary)
            if seed == self.run_seeds[0]:
                expected = self.reference
            if summary != expected:
                raise CheckFailed(f"discovery: seed {seed} did not repeat exactly")
        window.wall_s = time.perf_counter() - start
        window.unit_times = times
        rss = peak_rss_mb()
        window.metrics = {"client_rss_mb": rss, "server_rss_mb": rss}
        window.layer = {"net.client_busy": (cpu_seconds() - cpu0) / window.wall_s}
        if not times:
            window.metrics.update(reports_per_s=0.0, rounds_per_s=0.0)
            return window
        unit_s = statistics.fmean(times)
        done = list(summaries.values())
        per_unit = {key: statistics.fmean(s[key] for s in done) for key in ("reports", "rounds")}
        window.metrics.update(
            discovery_s=unit_s,
            f1=statistics.fmean(f1_score(s["heavy_hitters"], self.truth) for s in done),
            upload_bytes_per_report=(
                sum(s["upload_bits"] for s in done) / 8 / sum(s["reports"] for s in done)
            ),
            reports_per_s=per_unit["reports"] / unit_s,
            rounds_per_s=per_unit["rounds"] / unit_s,
        )
        return window

    def _unit(self, i):
        self._discover(self.timed_seeds[i])


# ---------------------------------------------------------------------- #
# ingest and rounds: one client, one gateway subprocess
# ---------------------------------------------------------------------- #
class Streamed(Workload):
    """Rounds streamed over one TCP connection to a ``repro serve`` gateway.

    Round ``r`` perturbs the values of input ``r mod POOL`` with a
    generator seeded by ``(seed, r)``, so every round is reproducible and
    the check round (a replay of round 0) must match timed round 0 exactly.
    """

    PARTY = "bench"
    LEVEL = 0
    ORACLE = ""
    EPSILON = 0.0
    REPORTS = 0
    BATCH = 0
    POOL = 0
    ZIPF = 1.1
    K = 0
    #: The first F1_ROUNDS rounds give ``f1``; the window never ends before them.
    F1_ROUNDS = 0

    def _spawn(self) -> Gateway:
        gateway = Gateway(self.placement)
        self.ready_times.append(gateway.ready_s)
        return gateway

    def setup(self):
        self.ready_times = []
        for _ in range(COLD_STARTS_BEFORE - 1):
            self._spawn().stop()
        # The last cold start's gateway serves the run.
        self.gateway = self._spawn()
        t0 = time.perf_counter()
        self._make_inputs(np.random.default_rng([self.seed, 2]))
        self.inputs_s = time.perf_counter() - t0
        self.setup_times = [r + self.inputs_s for r in self.ready_times]
        self.conn = self._connect()

    def cold_start(self):
        self._spawn().stop()
        return self.ready_times[-1] + self.inputs_s

    def gateway_ready_times(self):
        # The cold starts already timed this command.
        return self.ready_times

    def _make_inputs(self, rng) -> None:
        """Draw POOL input rounds of REPORTS Zipf-distributed items."""
        self.oracle = make_oracle(self.ORACLE, self.EPSILON)
        self.domain = CandidateDomain.full_domain(self.LEVEL)
        size = self.domain.size
        weights = 1.0 / np.arange(1, size + 1) ** self.ZIPF
        weights /= weights.sum()
        permutation = rng.permutation(size)
        items = [
            permutation[rng.choice(size, size=self.REPORTS, p=weights)]
            for _ in range(self.POOL)
        ]
        self.truth = [top_k(np.bincount(x, minlength=size), self.K) for x in items]
        # The domain is fixed for the run, so clients map items once.
        self.values = [self.domain.encode_items(x, self.LEVEL) for x in items]

    def _connect(self):
        raise NotImplementedError

    def _scrape(self) -> dict:
        raise NotImplementedError

    def _payloads(self, r: int):
        """Perturb and encode round ``r``'s reports, batch by batch."""
        for batch in iter_perturbed_batches(
            self.oracle,
            self.values[r % self.POOL],
            self.domain.size,
            np.random.default_rng([self.seed, r]),
            batch_size=self.BATCH,
            party=self.PARTY,
            level=self.LEVEL,
        ):
            # Looked up on the module so that a traced run sees the call.
            yield protocol.encode_report_batch(batch)

    def _broadcast(self) -> RoundBroadcast:
        return RoundBroadcast(
            party=self.PARTY,
            level=self.LEVEL,
            oracle_name=self.oracle.name,
            epsilon=self.oracle.epsilon,
            domain_size=self.domain.size,
            prefixes=tuple(self.domain.prefixes),
        )

    def _round(self, r: int):
        """One round: open, stream, close.  Returns the estimate and bytes sent.

        ``self.round_ops`` counts the round and each batch before it is tried.
        """
        self.round_ops = 1
        round_id, _ = self.conn.open_round(self._broadcast())
        sent = 0
        for payload in self._payloads(r):
            self.round_ops += 1
            self.conn.send_batch(round_id, payload)
            sent += len(payload)
        return self.conn.finalize(round_id), sent

    def check(self):
        """Round 0 through the gateway ≡ an in-process server fed the same batches."""
        payloads = list(self._payloads(0))
        round_id, _ = self.conn.open_round(self._broadcast())
        for payload in payloads:
            self.conn.send_batch(round_id, payload)
        remote = self.conn.finalize(round_id)
        server = AggregationServer()
        local_id = server.open_round(
            party=self.PARTY, level=self.LEVEL, oracle=self.oracle, domain=self.domain
        )
        for payload in payloads:
            server.ingest(local_id, payload)
        local = server.finalize_round(local_id)
        if not _same_estimate(remote, local):
            raise CheckFailed(f"{self.name}: gateway estimate differs from in-process server")
        self.reference = remote

    def reset_peak_rss(self):
        super().reset_peak_rss()
        self.gateway.reset_peak_rss()

    def measure(self, seconds):
        window = Window()
        f1s = []
        reports = sent_bytes = 0
        times = []
        acked_before = len(self.conn.latencies)
        cpu0, gateway_cpu0 = cpu_seconds(), self.gateway.cpu_seconds()
        start = time.perf_counter()
        r = 0
        while r < self.F1_ROUNDS or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            try:
                estimate, sent = self._round(r)
            except Exception:
                self.ledger.attempted += self.round_ops
                _fail(self.ledger, self.round_ops)
                break
            times.append(time.perf_counter() - t0)
            self.ledger.attempted += self.round_ops
            if r == 0 and not _same_estimate(estimate, self.reference):
                raise CheckFailed(f"{self.name}: round 0 did not repeat the check round")
            if r < self.F1_ROUNDS:
                found = top_k(estimate.estimated_counts[: self.domain.size], self.K)
                f1s.append(f1_score(found, self.truth[r % self.POOL]))
            reports += estimate.n_users
            sent_bytes += sent
            r += 1
        window.wall_s = wall = time.perf_counter() - start
        window.unit_times = times
        acks = np.asarray(self.conn.latencies[acked_before:]) * 1e3
        window.metrics = {
            "reports_per_s": reports / wall,
            "rounds_per_s": r / wall,
            "client_rss_mb": peak_rss_mb(),
        }
        if r:
            window.metrics.update(
                discovery_s=statistics.median(times),
                f1=statistics.fmean(f1s),
                upload_bytes_per_report=sent_bytes / reports,
            )
        window.layer = {"net.client_busy": (cpu_seconds() - cpu0) / wall}
        try:
            window.layer["net.gateway_busy"] = (self.gateway.cpu_seconds() - gateway_cpu0) / wall
            window.metrics["server_rss_mb"] = self.gateway.peak_rss_mb()
            window.layer.update(self._scrape())
        except (OSError, KeyError, ServiceError):
            # Only after a failed operation: the gateway may be gone.  The
            # run still reports what the client measured.
            if not self.ledger.failed:
                raise
            traceback.print_exc()
        if acks.size:
            window.layer["net.ack_p50_ms"] = float(np.percentile(acks, 50))
            window.layer["net.ack_p99_ms"] = float(np.percentile(acks, 99))
        return window

    def _unit(self, i):
        self._round(i)

    def close(self):
        try:
            conn = getattr(self, "conn", None)
            if conn is not None:
                conn.close()
        finally:
            gateway = getattr(self, "gateway", None)
            if gateway is not None:
                gateway.stop()


def _same_estimate(a, b) -> bool:
    return (
        np.array_equal(a.support_counts, b.support_counts)
        and np.array_equal(a.estimated_counts, b.estimated_counts)
        and a.n_users == b.n_users
        and a.domain_size == b.domain_size
        and a.metadata.get("upload_bits") == b.metadata.get("upload_bits")
    )


def _gateway_counters(document: dict) -> dict:
    counters = document["metrics"]["counters"]
    errors = sum(v for k, v in counters.items() if k.startswith("gateway_errors_total"))
    return {
        "net.gateway_batches": counters["gateway_batches_ingested_total"],
        "net.gateway_errors": errors + counters["gateway_frames_rejected_total"],
    }


class Ingest(Streamed):
    """Large OUE rounds at a small domain, closed by the gateway-side estimate.

    Chosen because it is throughput-bound on the gateway's decode and
    accumulate (the gateway is about 0.9 busy, the client about 0.6),
    opening a round takes under a millisecond of a ~60 ms round, and
    ``core`` is never called.
    """

    name = "ingest"
    LEVEL = 8
    ORACLE = "oue"
    EPSILON = 4.0
    REPORTS = 200_000
    BATCH = 4096
    POOL = 8
    K = 20
    F1_ROUNDS = 8

    def _connect(self):
        return GatewayConnection(self.gateway.address)

    def _scrape(self):
        return _gateway_counters(self.conn.metrics())


class Rounds(Streamed):
    """Many short k-RR rounds at a large domain, closed through a 1-shard cluster.

    Chosen because per-round fixed costs dominate: every round broadcasts
    the 16k-candidate list, the gateway rebuilds the domain from it and
    allocates a shard, and the round closes by export → merge → client-side
    estimate (the finalize path ``ingest`` does not use).  The gateway
    keeps every round's bookkeeping, so ``server_rss_mb`` shows growth of
    retained server state.  ε is 8 so that a 1k-report round over 16k
    candidates still finds part of its top-10 (at ε=4 its F1 is near 0).
    """

    name = "rounds"
    LEVEL = 14
    ORACLE = "krr"
    EPSILON = 8.0
    REPORTS = 1_000
    BATCH = 1_000
    POOL = 64
    K = 10
    F1_ROUNDS = 64

    def _connect(self):
        return ClusterConnection([self.gateway.address])

    def _scrape(self):
        return _gateway_counters(self.conn.metrics()["shards"][0])


WORKLOADS = {cls.name: cls for cls in (Discovery, Ingest, Rounds)}
