"""Cluster coordinator: round-robin routing and the round-close barrier.

Every networked client path runs through this module; a single gateway
address is a one-shard cluster.  Two layers:

* :class:`ClusterConnection` — one logical round fans out into a
  physical sub-round on every shard gateway (each reached over its own
  :class:`~repro.net.client.GatewayConnection`), report batches go to
  the shards round-robin (every shard accumulates over the full domain),
  and :meth:`ClusterConnection.finalize` runs the round-close **barrier** —
  drain every shard, collect each shard's raw
  :class:`~repro.service.server.ExportedShardState`, validate them against
  the logical round, then merge the exact int64 counts and estimate
  **once** via :func:`~repro.service.server.estimate_exported`.
* :class:`ClusterCoordinator` — the aggregation-server protocol
  (``open_round`` / ``ingest`` / ``finalize_round`` / ``shutdown``) over
  an open :class:`ClusterConnection`, so
  :class:`~repro.service.server.ServiceRoundRunner` and every mechanism
  run over one gateway or N shards unchanged.

**Bit-identity.**  The accounting is *logical*, with frame headers pure
transport: a round is **one** ``service_round_open`` message at the
canonical broadcast encoding's bits even though N physical broadcasts go
out (shard fan-out is transport, not protocol), and every report batch
counts its exact canonical wire bits on whichever shard it lands.  The
round runner logs those messages client-side; the codecs are canonical,
so it can log without trusting the network: the bytes it sends are the
bytes the gateways account, :meth:`ClusterConnection.open_round` checks
every shard's broadcast accounting against the canonical size, and the
finalize barrier checks the shards' batch and bit totals against what
this connection sent.
Because the merge algebra is associative/commutative and exact over int64
counts, and because the estimate is produced by the same
``finalize_estimate`` call over the same merged inputs, a fixed-seed run
is bit-identical — estimates, transcripts, wire-bit totals — at every
shard count and to the in-memory service
(``tests/test_cluster_equivalence.py``).

**Failure taxonomy** (structured :class:`~repro.service.server.ServiceError`
codes, branchable like the PR 5 codes):

* ``shard_unavailable`` — a gateway died, refused the connection or
  stopped answering (socket timeouts bound every read: never a hang) —
  for a single gateway too;
* ``shard_mismatch`` — a shard's exported state disagrees with the
  logical round (identity fields, broadcast size or accounting totals).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ldp.base import EstimationResult, FrequencyOracle
from repro.net.client import GatewayConnection, parse_cluster_addresses
from repro.obs.registry import METRICS_SCHEMA, MetricsRegistry
from repro.service.protocol import RoundBroadcast, encode_broadcast, wire_bits
from repro.service.server import ExportedShardState, ServiceError, estimate_exported

__all__ = ["ClusterConnection", "ClusterCoordinator", "parse_cluster_addresses"]


@dataclass
class _ClusterRound:
    """Coordinator-side state of one open logical round spanning every shard.

    Closing the round (the finalize barrier, or a failed send) removes it
    from :attr:`ClusterConnection._rounds`.
    """

    round_id: int
    party: str
    level: int
    oracle_name: str
    epsilon: float
    domain_size: int
    broadcast_bits: int
    shard_round_ids: list[int] = field(default_factory=list)
    next_seq: int = 0
    n_batches: int = 0
    upload_bits: int = 0


class ClusterConnection:
    """Synchronous client of a gateway cluster — one gateway or N shards.

    The :class:`~repro.net.client.GatewayConnection` surface —
    ``open_round`` / ``send_batch`` / ``drain`` / ``finalize`` /
    ``stats`` / ``metrics`` / ``latencies`` — over a list of shard
    gateways, plus :meth:`shutdown_cluster`.  A single ``HOST:PORT`` is a
    one-shard cluster: its :meth:`stats` and :meth:`metrics` carry the
    gateway's own document as ``shards[0]``.

    Parameters
    ----------
    addresses:
        ``HOST:PORT``, or a comma-joined string (or iterable) of them, one
        per shard gateway.  Order defines shard indices: the k-th batch
        this connection sends goes to shard ``k % len(addresses)``.
    timeout:
        Socket timeout for every shard connection; a stuck shard
        surfaces as a ``shard_unavailable`` :class:`ServiceError`,
        never a hang.
    op_timeout:
        Per-operation deadline shared by all reads of one shard
        operation (see :class:`~repro.net.client.GatewayConnection`).
        Without it a *straggling* (not dead) shard that trickles one
        frame per ``timeout - ε`` stretches the finalize barrier by its
        full drain; with it the barrier raises ``shard_unavailable``
        after at most ``op_timeout`` per shard.
    telemetry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        coordinator's own counters (per-shard route counts, merge-barrier
        wait).  One is created when omitted; either way
        :meth:`metrics` returns it alongside every shard's scrape.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  Shard connections
        share it (client round/batch spans per shard), and the finalize
        barrier records a ``cluster.merge_barrier`` span.  Observe-only.
    """

    def __init__(
        self,
        addresses,
        *,
        timeout: float = 60.0,
        op_timeout: float | None = None,
        telemetry: MetricsRegistry | None = None,
        tracer=None,
    ):
        self.addresses = parse_cluster_addresses(addresses)
        self.n_shards = len(self.addresses)
        self.timeout = float(timeout)
        self.op_timeout = None if op_timeout is None else float(op_timeout)
        # Routing only decides *which* shard accumulates a batch, never
        # the merged result (the merge algebra is partition-independent),
        # so batches simply take turns: the k-th send goes to shard k % N.
        self._n_sent = 0
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.tracer = tracer
        self._m_rounds_opened = self.telemetry.counter("cluster_rounds_opened_total")
        self._m_rounds_merged = self.telemetry.counter("cluster_rounds_merged_total")
        self._m_upload_bits = self.telemetry.counter("cluster_upload_bits_total")
        self._m_routed = [
            self.telemetry.counter("cluster_batches_routed_total", shard=shard)
            for shard in range(self.n_shards)
        ]
        self._m_barrier_ms = self.telemetry.histogram("cluster_merge_barrier_ms")
        self._connections: list[GatewayConnection] = []
        self._rounds: dict[int, _ClusterRound] = {}
        self._next_round_id = 0
        try:
            for shard, address in enumerate(self.addresses):
                try:
                    self._connections.append(
                        GatewayConnection(
                            address,
                            timeout=self.timeout,
                            op_timeout=self.op_timeout,
                            tracer=self.tracer,
                        )
                    )
                except (OSError, EOFError) as exc:
                    raise self._unavailable(shard, exc) from exc
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Shard plumbing
    # ------------------------------------------------------------------ #
    def _unavailable(self, shard: int, exc: BaseException) -> ServiceError:
        return ServiceError(
            f"shard {shard} ({self.addresses[shard]}) is unavailable: {exc!r}",
            code="shard_unavailable",
        )

    def _on_shard(self, shard: int, fn, *args, **kwargs):
        """Run one shard operation, mapping transport death to the
        structured ``shard_unavailable`` code.  Service errors the shard
        itself raises (the error-frame path) pass through untouched."""
        try:
            return fn(*args, **kwargs)
        except (OSError, EOFError) as exc:
            raise self._unavailable(shard, exc) from exc

    def _round(self, round_id: int) -> _ClusterRound:
        round_id = int(round_id)
        round_ = self._rounds.get(round_id)
        if round_ is not None:
            return round_
        if 0 <= round_id < self._next_round_id:
            # A closed round leaves the dict; its id was issued, so it
            # reads as closed rather than unknown.
            raise ServiceError(
                f"cluster round {round_id} is already finalized", code="round_closed"
            )
        raise ServiceError(f"unknown cluster round id {round_id}", code="unknown_round")

    # ------------------------------------------------------------------ #
    # GatewayConnection surface
    # ------------------------------------------------------------------ #
    @property
    def latencies(self) -> list[float]:
        """Send→ack latencies across every shard connection."""
        return [lat for conn in self._connections for lat in conn.latencies]

    @property
    def outstanding(self) -> int:
        return sum(conn.outstanding for conn in self._connections)

    def open_round(self, broadcast: RoundBroadcast) -> tuple[int, int]:
        """Open one logical round: a physical sub-round on every shard.

        The broadcast is encoded once and those exact bytes go to every
        shard.  Returns ``(round_id, broadcast_bits)`` where the bits are
        that **canonical** encoding's, counted once — the N physical
        broadcasts are shard fan-out, i.e. transport.  Every shard must
        account the broadcast at exactly the canonical size
        (``shard_mismatch`` otherwise: a disagreeing shard would poison
        bit-identity).
        """
        payload = encode_broadcast(broadcast)
        canonical_bits = wire_bits(payload)
        shard_round_ids: list[int] = []
        for shard, conn in enumerate(self._connections):
            shard_round_id, shard_bits = self._on_shard(
                shard, conn.open_round, broadcast, payload=payload
            )
            if shard_bits != canonical_bits:
                raise ServiceError(
                    f"shard {shard} ({self.addresses[shard]}) accounted the round "
                    f"broadcast at {shard_bits} bits, the canonical encoding is "
                    f"{canonical_bits} — bit-identity breach",
                    code="shard_mismatch",
                )
            shard_round_ids.append(shard_round_id)
        round_id = self._next_round_id
        self._next_round_id += 1
        self._rounds[round_id] = _ClusterRound(
            round_id=round_id,
            party=broadcast.party,
            level=int(broadcast.level),
            oracle_name=broadcast.oracle_name,
            epsilon=float(broadcast.epsilon),
            domain_size=int(broadcast.domain_size),
            broadcast_bits=canonical_bits,
            shard_round_ids=shard_round_ids,
        )
        self._m_rounds_opened.inc()
        return round_id, canonical_bits

    def send_batch(self, round_id: int, payload: bytes) -> int:
        """Send one encoded report batch to the next shard, round-robin.

        This connection's k-th batch goes to shard ``k % n_shards``: a
        fixed sequence of sends routes identically, and the batches split
        evenly over the shards, within one.  Returns the batch's
        per-round ``seq``.
        """
        round_ = self._round(round_id)
        seq = round_.next_seq
        round_.next_seq += 1
        shard = self._n_sent % self.n_shards
        self._n_sent += 1
        try:
            self._on_shard(
                shard,
                self._connections[shard].send_batch,
                round_.shard_round_ids[shard],
                payload,
            )
        except BaseException:
            # A shard error mid-pipelined-upload can arrive as an error
            # frame interleaved with earlier batches' acks — by the time
            # it surfaces here, how many of this connection's in-flight
            # batches the shard ingested is unknowable, so the logical
            # round's accounting can no longer be validated.  Close the
            # round explicitly: a later finalize reports the structured
            # ``round_closed`` instead of a misleading ``shard_mismatch``
            # from totals this failure skewed.
            del self._rounds[round_.round_id]
            raise
        # Counters only move once the shard accepted the send: an
        # unsent batch must not inflate the totals the barrier validates.
        round_.n_batches += 1
        payload_bits = wire_bits(payload)
        round_.upload_bits += payload_bits
        self._m_routed[shard].inc()
        self._m_upload_bits.inc(payload_bits)
        return seq

    def drain(self) -> None:
        """Block until every shard has acknowledged every pipelined batch."""
        for shard, conn in enumerate(self._connections):
            self._on_shard(shard, conn.drain)

    def finalize(self, round_id: int) -> EstimationResult:
        """The round-close barrier: collect, validate, merge, estimate once.

        Drains and exports every shard's raw sub-round state, validates
        each against the logical round (identity fields *and* the exact
        batch/bit totals the coordinator accounted), merges the int64
        counts with the commutative shard algebra, and produces the
        estimate through :func:`~repro.service.server.estimate_exported`
        — the same close a single gateway runs, and the same
        ``finalize_estimate`` call on the same inputs as a single server
        ingesting the whole stream.
        """
        round_ = self._round(round_id)
        # The barrier consumes the round: shard sub-rounds close as their
        # states export, so a half-failed barrier must not be retried
        # against already-released shards.
        del self._rounds[round_.round_id]
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "cluster.merge_barrier",
                round_id=round_.round_id,
                n_shards=self.n_shards,
            )
        barrier_start = time.perf_counter()
        try:
            states: list[ExportedShardState] = []
            for shard, conn in enumerate(self._connections):
                states.append(
                    self._on_shard(
                        shard, conn.export_shard, round_.shard_round_ids[shard]
                    )
                )
            self._validate_states(round_, states)
            result = estimate_exported(states)
        except BaseException as exc:
            if span is not None:
                span.finish(error=f"{type(exc).__name__}: {exc}")
            raise
        self._m_barrier_ms.observe((time.perf_counter() - barrier_start) * 1e3)
        self._m_rounds_merged.inc()
        if span is not None:
            span.finish(n_batches=round_.n_batches, n_users=result.n_users)
        return result

    def _validate_states(
        self, round_: _ClusterRound, states: list[ExportedShardState]
    ) -> None:
        for shard, state in enumerate(states):
            for field_name, expected, got in (
                ("party", round_.party, state.party),
                ("level", round_.level, state.level),
                ("oracle", round_.oracle_name, state.oracle_name),
                ("epsilon", round_.epsilon, state.epsilon),
                ("domain_size", round_.domain_size, state.domain_size),
                ("broadcast_bits", round_.broadcast_bits, state.broadcast_bits),
            ):
                if got != expected:
                    raise ServiceError(
                        f"shard {shard} ({self.addresses[shard]}) exported "
                        f"{field_name}={got!r} for round {round_.round_id}, "
                        f"expected {expected!r}",
                        code="shard_mismatch",
                    )
        total_batches = sum(state.n_batches for state in states)
        if total_batches != round_.n_batches:
            raise ServiceError(
                f"shards ingested {total_batches} batches for round "
                f"{round_.round_id}, the coordinator routed {round_.n_batches}",
                code="shard_mismatch",
            )
        total_bits = sum(state.upload_bits for state in states)
        if total_bits != round_.upload_bits:
            raise ServiceError(
                f"shards accounted {total_bits} upload bits for round "
                f"{round_.round_id}, the coordinator sent {round_.upload_bits} "
                "— bit-identity breach",
                code="shard_mismatch",
            )

    # ------------------------------------------------------------------ #
    # Cluster management
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Aggregated accounting: the :func:`cluster_stats` of one
        :meth:`metrics` scrape."""
        return cluster_stats(self.metrics())

    def metrics(self) -> dict:
        """Cluster-wide metrics document: coordinator registry + shard scrapes.

        This connection's own snapshot rides under ``"metrics"`` (so the
        document validates like any other); each shard's full wire-scraped
        document is listed under ``"shards"`` in address order.  For a
        connection opened only to scrape, as ``repro stats`` does, that
        snapshot is the scraper's: every ``cluster_*`` counter reads 0.
        """
        shards = [
            self._on_shard(shard, conn.metrics)
            for shard, conn in enumerate(self._connections)
        ]
        return {
            "schema": METRICS_SCHEMA,
            "source": "cluster",
            "metrics": self.telemetry.snapshot(),
            "shards": shards,
        }

    def shutdown_cluster(self) -> None:
        """Gracefully stop every shard gateway (already-dead shards are
        fine: shutting a cluster down twice should not fail)."""
        for shard, conn in enumerate(self._connections):
            try:
                self._on_shard(shard, conn.shutdown_gateway)
            except ServiceError as exc:
                if exc.code != "shard_unavailable":
                    raise

    def close(self) -> None:
        for conn in self._connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self) -> "ClusterConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def cluster_stats(document: dict) -> dict:
    """Aggregated accounting of a :meth:`ClusterConnection.metrics` document.

    Summable counters plus every shard's ``"stats"`` under ``"shards"``.
    ``upload_bits`` sums to the logical total (each batch lands on
    exactly one shard); ``broadcast_bits`` is **physical** — every shard
    broadcasts every round — so it is N× the logical figure.
    """
    shards = [shard["stats"] for shard in document["shards"]]
    summed = {
        key: sum(entry[key] for entry in shards)
        for key in (
            "upload_bits",
            "broadcast_bits",
            "rounds_opened",
            "open_rounds",
            "frames_rejected",
        )
        if all(key in entry for entry in shards)
    }
    return {"n_shards": len(shards), **summed, "shards": shards}


class ClusterCoordinator:
    """An :class:`~repro.service.server.AggregationServer` living elsewhere.

    The server protocol (``open_round`` / ``ingest`` / ``finalize_round``
    / ``shutdown``) over an open :class:`ClusterConnection` — one gateway
    or N shards — so :class:`~repro.service.server.ServiceRoundRunner`
    streams a networked round exactly as it streams an in-process one,
    and logs the same transcript.  ``config.gateway`` in network mode is
    what hands a mechanism one of these
    (:meth:`repro.core.base.FederatedMechanism._make_round_runner`); the
    load generator wraps its own instrumented connection.
    """

    def __init__(self, connection: ClusterConnection):
        self.connection = connection

    def open_round(
        self, *, party: str, level: int, oracle: FrequencyOracle, domain
    ) -> int:
        """Open a round on every shard.

        :meth:`ClusterConnection.open_round` checks every shard's
        accounting of the broadcast against the canonical bits
        (``shard_mismatch`` otherwise).
        """
        round_id, _ = self.connection.open_round(
            RoundBroadcast(
                party=party,
                level=int(level),
                oracle_name=oracle.name,
                epsilon=oracle.epsilon,
                domain_size=int(domain.size),
                prefixes=tuple(domain.prefixes),
            )
        )
        return round_id

    def ingest(self, round_id: int, payload: bytes) -> None:
        """Pipeline one encoded wire batch into a remote round.

        Batches are fire-and-forget up to the credit budget, which keeps
        upload throughput off the round-trip time: the ack, and with it
        any structured server error, surfaces at the latest on
        :meth:`finalize_round`.
        """
        self.connection.send_batch(round_id, payload)

    def finalize_round(self, round_id: int) -> EstimationResult:
        return self.connection.finalize(round_id)

    def shutdown(self) -> None:
        """Close this client's connections (the gateways keep serving)."""
        self.connection.close()
