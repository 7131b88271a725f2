"""The asyncio TCP gateway fronting an :class:`~repro.service.server.AggregationServer`.

One :class:`AggregationGateway` owns one aggregation server and serves the
frame protocol of :mod:`repro.net.framing` to any number of concurrent
client connections:

* **round lifecycle** — a broadcast-request frame opens a round (the
  gateway reconstructs the round's oracle and candidate domain from the
  decoded broadcast, then re-encodes it for accounting — canonical codecs
  make the re-encoding byte-identical); an ``export_shard`` control
  message closes it and returns the round's exact, **unestimated** counts
  as a shard-state frame — the gateway never estimates: the client
  merges (one state here, one per shard in a cluster) and estimates
  once;
* **columnar decode fan-out** — report-batch frames are decoded *and
  counted* on the gateway's execution backend (:mod:`repro.engine`) while
  the single-threaded event loop keeps reading: each worker reduces its
  payload to an ``O(domain_size)`` count summary
  (:func:`~repro.service.columnar.summarize_report_payload`), so only
  count vectors — never report buffers — cross back to the accumulator,
  which merges them via
  :meth:`~repro.service.server.AggregationServer.ingest_summary` on one
  thread so totals never race.  Counts are exact integers, so this is
  bit-identical to the in-process
  :meth:`~repro.service.server.AggregationServer.ingest` in estimates,
  transcripts and accounting (``tests/test_columnar_equivalence.py``);
* **admission control** — frames above ``max_frame_bytes`` are refused on
  their 5-byte header alone (the body is never read); a global
  ``max_inflight_batches`` semaphore bounds decode memory — when it is
  full the gateway simply stops reading sockets, which is TCP
  backpressure; each connection additionally gets ``connection_credits``
  in its welcome message and is disconnected if it exceeds them
  (credit-based backpressure: a batch costs one credit, its ack returns
  it);
* **exact accounting** — identical to in-memory mode, because the bytes
  inside a report/broadcast frame *are* the canonical service encoding
  the in-memory server accounts.  The embedded server's message log is
  drained at every round close: clients keep their own transcript, so
  the gateway's would only grow.

Synchronous hosts (tests, examples, the load generator, ``repro serve
--listen`` is async-native) use :func:`start_gateway`, which runs the
gateway's event loop on a daemon thread and hands back a
:class:`GatewayHandle` context manager.

**Trust model.**  The gateway is a measurement instrument for trusted
clients (localhost/lab networks), not an authenticated production
endpoint: admission control protects the *server's resources* (frame
sizes, in-flight decode memory, domain allocations tied to broadcast
size), while rounds deliberately have no connection ownership — any
connection may stream into or close any round.  That is load-bearing:
a process-backend client pickles its
:class:`~repro.cluster.coordinator.ClusterCoordinator` into workers, which
reconnect and legitimately finish rounds their parent's connection
opened.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from repro.engine import ExecutionBackend, get_backend
from repro.ldp.registry import make_oracle
from repro.net import framing
from repro.net.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_BROADCAST_REQUEST,
    FRAME_ERROR,
    FRAME_HEADER_SIZE,
    FRAME_KINDS,
    FRAME_REPORT_BATCH,
    FRAME_ROUND_CONTROL,
    TRACE_CONTEXT_SIZE,
    Frame,
    FrameError,
    frame_kind_name,
)
from repro.obs.registry import METRICS_SCHEMA, MetricsRegistry
from repro.obs.trace import SpanContext, Tracer
from repro.service.columnar import summarize_report_payload
from repro.service.protocol import WireFormatError, decode_broadcast, wire_bits
from repro.service.server import AggregationServer, ServiceError
from repro.utils.validation import check_positive

#: Protocol revision announced in the welcome message.
PROTOCOL_VERSION = 1

DEFAULT_CONNECTION_CREDITS = 32
DEFAULT_MAX_INFLIGHT_BATCHES = 256


@dataclass(frozen=True)
class _WireDomain:
    """The candidate domain as reconstructed from a round broadcast.

    :meth:`AggregationServer.open_round` only reads ``size`` and
    ``prefixes``, both of which the broadcast carries verbatim.
    """

    size: int
    prefixes: tuple[str, ...]


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Frame | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Oversize and unknown-kind frames raise *before* the body is read.
    """
    header = await reader.read(FRAME_HEADER_SIZE)
    if not header:
        return None
    while len(header) < FRAME_HEADER_SIZE:
        chunk = await reader.read(FRAME_HEADER_SIZE - len(header))
        if not chunk:
            raise FrameError("connection closed mid frame header")
        header += chunk
    length, raw_kind = framing.parse_frame_header(header)
    kind, has_trace = framing.split_frame_kind(raw_kind)
    framing.check_frame_header(length, kind, max_frame_bytes=max_frame_bytes)
    trace = await reader.readexactly(TRACE_CONTEXT_SIZE) if has_trace else None
    body = await reader.readexactly(length) if length else b""
    return Frame(kind=kind, body=body, trace=trace)


@dataclass
class _Connection:
    """Per-connection gateway state: writer, credit ledger, pending ingests."""

    writer: asyncio.StreamWriter
    credits: int
    pending: set = field(default_factory=set)
    n_batches: int = 0
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    on_error: object = None  # callable(exc) counting errors by code

    async def send(self, kind: int, body: bytes) -> None:
        async with self.write_lock:
            self.writer.write(framing.encode_frame(kind, body))
            await self.writer.drain()

    async def send_control(self, message: dict) -> None:
        await self.send(FRAME_ROUND_CONTROL, framing.encode_control(message))

    async def send_error(self, exc: BaseException, *, seq: int | None = None) -> None:
        if self.on_error is not None:
            self.on_error(exc)
        try:
            await self.send(FRAME_ERROR, framing.encode_error(exc, seq=seq))
        except (ConnectionError, RuntimeError):  # peer already gone
            pass

    async def drain_pending(self) -> None:
        """Barrier: wait for every in-flight ingest of this connection."""
        while self.pending:
            await asyncio.gather(*list(self.pending), return_exceptions=True)


class AggregationGateway:
    """Serves the aggregation wire protocol over TCP, fronting one server.

    Parameters
    ----------
    host / port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`address` once started).
    decode_backend / decode_workers:
        Execution backend for the per-batch decode fan-out: each wire
        batch is decoded and counted into its support-count vector on an
        engine worker (``None``: serial).  The gateway owns the resolved
        engine and shuts it down on :meth:`stop`.
    connection_credits:
        Report batches a connection may have in flight (unacked); the
        bound is announced in the welcome message and enforced.
    max_inflight_batches:
        Global bound on concurrently decoding batches across all
        connections; beyond it the gateway stops reading sockets.
    max_frame_bytes:
        Largest accepted frame body; bigger frames are refused unread and
        the connection is closed.
    allow_shutdown:
        Whether a ``{"op": "shutdown"}`` control message stops the
        gateway (operator convenience for scripted runs; disable for
        long-lived servers).
    metrics:
        A :class:`~repro.obs.registry.MetricsRegistry` to instrument into
        (default: the gateway creates its own).  The registry is shared
        with the inner server, so ``service_*`` and ``gateway_*`` series
        land in one snapshot — what the ``{"op": "metrics"}`` control
        message (and ``repro stats``) scrapes.
    tracer / trace_log:
        Span tracing: pass a live :class:`~repro.obs.trace.Tracer`, or a
        JSONL path the gateway opens (and closes on :meth:`stop`).  Off
        by default.  Batch frames stamped with the trace extension parent
        the gateway's ingest spans, linking client → gateway → shard.
    telemetry_sample:
        Fraction of ingests that get wall-clock timing
        (``gateway_batch_ms``).  0 (the default) keeps clock reads off
        the hot path entirely; counters are always on (they cost one
        integer add).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        decode_backend: str | ExecutionBackend | None = None,
        decode_workers: int | None = None,
        connection_credits: int = DEFAULT_CONNECTION_CREDITS,
        max_inflight_batches: int = DEFAULT_MAX_INFLIGHT_BATCHES,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        allow_shutdown: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        trace_log: str | None = None,
        telemetry_sample: float = 0.0,
    ):
        check_positive("connection_credits", connection_credits)
        check_positive("max_inflight_batches", max_inflight_batches)
        check_positive("max_frame_bytes", max_frame_bytes)
        self.host = host
        self.port = int(port)
        self.connection_credits = int(connection_credits)
        self.max_inflight_batches = int(max_inflight_batches)
        self.max_frame_bytes = int(max_frame_bytes)
        self.allow_shutdown = bool(allow_shutdown)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._owns_tracer = tracer is None and trace_log is not None
        self.tracer = tracer if tracer is not None else (
            Tracer(trace_log) if trace_log is not None else None
        )
        sample = float(telemetry_sample)
        # Sampling is deterministic (every Nth ingest), so it never reads
        # an RNG: N = round(1/fraction), 0 disables timing entirely.
        self._sample_every = 0 if sample <= 0 else max(1, round(1.0 / sample))
        self._engine = get_backend(decode_backend, decode_workers)
        self.server = AggregationServer(metrics=self.metrics)
        m = self.metrics
        self._m_connections_total = m.counter("gateway_connections_total")
        self._m_connections_live = m.gauge("gateway_connections_live")
        self._m_frames = {
            kind: m.counter("gateway_frames_total", kind=frame_kind_name(kind))
            for kind in FRAME_KINDS
        }
        self._m_frames_rejected = m.counter("gateway_frames_rejected_total")
        self._m_batches = m.counter("gateway_batches_ingested_total")
        self._m_reports = m.counter("gateway_reports_ingested_total")
        self._m_inflight = m.gauge("gateway_inflight_batches")
        self._m_batch_ms = m.histogram("gateway_batch_ms")
        self._m_rounds_opened = m.counter("gateway_rounds_opened_total")
        self._m_shards_exported = m.counter("gateway_shards_exported_total")
        # All mutations of the inner server run on this one worker — the
        # serialization the accounting needs — while the event loop stays
        # free to read frames and send acks.  Decoding and counting happen
        # on the engine; this worker only adds count vectors.
        self._accumulator = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-gateway-accumulate"
        )
        self._aio_server: asyncio.Server | None = None
        self._inflight: asyncio.Semaphore | None = None
        self._stopping = False
        self._stopped: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()
        self.n_connections_total = 0
        self.n_frames_rejected = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def listening(self) -> bool:
        """Whether the gateway ever bound its port (distinguishes bind
        failures from serving-time failures for callers' diagnostics)."""
        return self._aio_server is not None

    @property
    def address(self) -> str:
        """``host:port`` actually bound (resolves ephemeral ports)."""
        if self._aio_server is None:
            raise RuntimeError("gateway is not listening; call start() first")
        sock = self._aio_server.sockets[0]
        host, port = sock.getsockname()[:2]
        return f"{host}:{port}"

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._inflight = asyncio.Semaphore(self.max_inflight_batches)
        self._stopped = asyncio.Event()
        self._aio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    async def stop(self) -> None:
        """Stop accepting, tear down live connections, release workers."""
        self._stopping = True
        if self._aio_server is not None:
            self._aio_server.close()
            await self._aio_server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._accumulator.shutdown(wait=True)
        self._engine.shutdown()
        if self._owns_tracer and self.tracer is not None:
            self.tracer.close()
        if self._stopped is not None:
            self._stopped.set()

    def request_stop(self) -> None:
        """Ask the serving loop to wind down (idempotent, loop-thread only)."""
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or a shutdown frame), then stop."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()
        if not self._stopping:
            await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        self.n_connections_total += 1
        self._m_connections_total.inc()
        self._m_connections_live.inc()
        state = _Connection(
            writer=writer,
            credits=self.connection_credits,
            on_error=self._count_error,
        )
        try:
            await state.send_control(
                {
                    "op": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "credits": self.connection_credits,
                    "max_frame_bytes": self.max_frame_bytes,
                    "trace": True,
                }
            )
            while True:
                try:
                    frame = await read_frame(
                        reader, max_frame_bytes=self.max_frame_bytes
                    )
                except FrameError as exc:
                    # Framing is unrecoverable: the stream position is
                    # untrusted, so report and hang up.
                    self.n_frames_rejected += 1
                    self._m_frames_rejected.inc()
                    await state.send_error(exc)
                    break
                if frame is None:
                    break
                counter = self._m_frames.get(frame.kind)
                if counter is not None:
                    counter.inc()
                try:
                    proceed = await self._dispatch(state, frame)
                except asyncio.CancelledError:
                    raise
                except (ConnectionError, asyncio.IncompleteReadError):
                    raise
                except Exception as exc:  # noqa: BLE001 - last-resort net
                    # No failure may kill the handler silently: whatever
                    # slipped past the per-frame handlers ships as an
                    # "internal" error frame before the connection closes.
                    await state.send_error(exc)
                    break
                if not proceed:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-frame; per-connection state dies with it
        except asyncio.CancelledError:
            # Gateway-initiated teardown.  Returning (not re-raising) keeps
            # asyncio.streams' connection_made callback from logging every
            # cancelled handler as an unretrieved exception.
            pass
        finally:
            # Teardown must never let an exception (including a cancel from
            # gateway stop) escape the handler task: asyncio.streams would
            # log each one as an unretrieved connection error.
            self._m_connections_live.dec()
            try:
                await state.drain_pending()
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _dispatch(self, state: _Connection, frame: Frame) -> bool:
        """Route one frame; returns False when the connection must close."""
        if frame.kind == FRAME_REPORT_BATCH:
            return await self._on_report_batch(state, frame)
        if frame.kind == FRAME_BROADCAST_REQUEST:
            await self._on_broadcast_request(state, frame)
            return True
        if frame.kind == FRAME_ROUND_CONTROL:
            return await self._on_control(state, frame.body)
        # Clients never send ERROR/SHARD_STATE/STATS; treat them as
        # framing abuse.
        self.n_frames_rejected += 1
        self._m_frames_rejected.inc()
        await state.send_error(FrameError(f"unexpected frame kind {frame.kind}"))
        return False

    def _count_error(self, exc: BaseException) -> None:
        """Count one outbound error frame under its structured code."""
        code, _ = framing.exception_to_error(exc)
        self.metrics.counter("gateway_errors_total", code=code).inc()

    def _frame_span(self, name: str, frame: Frame, **attrs):
        """A span for handling ``frame``, parented on its trace extension."""
        if self.tracer is None:
            return None
        parent = None
        if frame.trace is not None:
            try:
                parent = SpanContext.from_bytes(frame.trace)
            except ValueError:  # pragma: no cover - read_frame sizes it
                parent = None
        return self.tracer.start_span(name, parent=parent, **attrs)

    # ------------------------------------------------------------------ #
    # Round opening
    # ------------------------------------------------------------------ #
    async def _on_broadcast_request(self, state: _Connection, frame: Frame) -> None:
        body = frame.body
        span = self._frame_span("gateway.open_round", frame)
        try:
            broadcast = decode_broadcast(body)
            n_prefixes = len(broadcast.prefixes)
            if not n_prefixes <= broadcast.domain_size <= n_prefixes + 1:
                # The candidate domain is its prefixes plus at most a dummy
                # slot.  Enforcing that here ties the O(domain_size) shard
                # allocation to the broadcast's actual frame size — a tiny
                # frame cannot declare a multi-gigabyte domain.
                raise WireFormatError(
                    f"broadcast declares domain_size {broadcast.domain_size} "
                    f"for {n_prefixes} prefixes (must be n or n+1)"
                )
            try:
                oracle = make_oracle(broadcast.oracle_name, broadcast.epsilon)
                domain = _WireDomain(
                    size=broadcast.domain_size, prefixes=broadcast.prefixes
                )
                round_id = await asyncio.get_running_loop().run_in_executor(
                    self._accumulator,
                    partial(
                        self.server.open_round,
                        party=broadcast.party,
                        level=broadcast.level,
                        oracle=oracle,
                        domain=domain,
                    ),
                )
            except (KeyError, ValueError) as exc:
                # A decodable broadcast can still carry values the library
                # refuses (unknown oracle, epsilon <= 0, empty domain);
                # untrusted input must answer with an error frame, never
                # kill the handler.
                if isinstance(exc, WireFormatError):
                    raise
                message = str(exc.args[0]) if exc.args else str(exc)
                raise WireFormatError(message) from exc
        except (WireFormatError, ServiceError) as exc:
            if span is not None:
                span.finish(error=f"{type(exc).__name__}: {exc}")
            await state.send_error(exc)
            return
        self._m_rounds_opened.inc()
        if span is not None:
            span.finish(round_id=round_id, party=broadcast.party, level=broadcast.level)
        await state.send_control(
            {
                "op": "round_open",
                "round_id": round_id,
                "broadcast_bits": self.server.rounds[round_id].broadcast_bits,
            }
        )

    # ------------------------------------------------------------------ #
    # Batch ingestion (pipelined)
    # ------------------------------------------------------------------ #
    async def _on_report_batch(self, state: _Connection, frame: Frame) -> bool:
        try:
            round_id, seq, payload = framing.decode_report_frame(frame.body)
        except FrameError as exc:
            await state.send_error(exc)
            return False
        try:
            # Round-state errors precede codec errors (matching the
            # in-memory server), and a batch for a dead round never costs
            # the engine a decode.  A racing export on the accumulator
            # thread is re-checked authoritatively inside ingest_summary.
            self.server.check_open(round_id)
        except ServiceError as exc:
            await state.send_error(exc, seq=seq)
            return True
        if len(state.pending) >= state.credits:
            # The client broke the credit contract announced in the
            # welcome; a well-behaved client can never trip this because
            # acks are sent only after the pending entry is released.
            self.n_frames_rejected += 1
            await state.send_error(
                ServiceError(
                    f"connection exceeded its {state.credits} report-batch "
                    "credits",
                    code="admission_rejected",
                ),
                seq=seq,
            )
            return False
        assert self._inflight is not None
        await self._inflight.acquire()  # global cap: stop reading when full
        self._m_inflight.inc()
        # Sampled wall-clock timing plus the (optional) ingest span: both
        # decided here, after admission, so rejected batches never pay a
        # clock read and span counts match ingested batches exactly.
        t0 = (
            time.perf_counter()
            if self._sample_every and self._m_batches.value % self._sample_every == 0
            else None
        )
        span = self._frame_span("gateway.ingest", frame, round_id=round_id, seq=seq)
        future = self._engine.submit(summarize_report_payload, payload)
        task = asyncio.get_running_loop().create_task(
            self._ingest(state, round_id, seq, wire_bits(payload), future, t0, span)
        )
        state.pending.add(task)
        task.add_done_callback(state.pending.discard)
        return True

    async def _ingest(self, state, round_id, seq, payload_bits, future, t0=None, span=None) -> None:
        try:
            try:
                summary = await asyncio.wrap_future(future)
                n = await asyncio.get_running_loop().run_in_executor(
                    self._accumulator,
                    partial(
                        self.server.ingest_summary,
                        round_id,
                        summary,
                        payload_bits=payload_bits,
                    ),
                )
            finally:
                self._inflight.release()
                self._m_inflight.dec()
        except asyncio.CancelledError:  # pragma: no cover - teardown
            if span is not None:
                span.finish(error="cancelled")
            raise
        except Exception as exc:  # noqa: BLE001 - every failure crosses the wire
            # WireFormatError/ServiceError keep their structured code; any
            # other failure ships as "internal" instead of killing the loop.
            if span is not None:
                span.finish(error=f"{type(exc).__name__}: {exc}")
            await state.send_error(exc, seq=seq)
            return
        state.n_batches += 1
        self._m_batches.inc()
        self._m_reports.inc(n)
        if t0 is not None:
            self._m_batch_ms.observe((time.perf_counter() - t0) * 1e3)
        if span is not None:
            span.finish(n=n, payload_bits=payload_bits)
        # Release the credit BEFORE the ack crosses the wire: once the
        # client reads the ack it may immediately send another batch, and
        # the admission check must never see the acked task still pending
        # (the ack write can suspend on a full transport buffer).
        task = asyncio.current_task()
        if task is not None:
            state.pending.discard(task)
        try:
            await state.send_control(
                {"op": "batch_ack", "round_id": round_id, "seq": seq, "n": n}
            )
        except (ConnectionError, RuntimeError):  # pragma: no cover - peer gone
            pass

    # ------------------------------------------------------------------ #
    # Control messages
    # ------------------------------------------------------------------ #
    async def _on_control(self, state: _Connection, body: bytes) -> bool:
        try:
            message = framing.decode_control(body)
            op = message.get("op")
            if op == "export_shard":
                # The gateway's half of every round close: the export must
                # observe every batch the client pipelined before it
                # (client drains its acks first, so pending here is
                # already empty in the well-behaved case), then ship the
                # raw (unestimated) state for the client to estimate.
                await state.drain_pending()
                round_id = int(message["round_id"])
                exported = await asyncio.get_running_loop().run_in_executor(
                    self._accumulator, self._export_round, round_id
                )
                self._m_shards_exported.inc()
                await state.send(
                    framing.FRAME_SHARD_STATE,
                    framing.encode_shard_state_frame(round_id, exported),
                )
                return True
            if op == "metrics":
                await state.drain_pending()
                # Through the accumulator, like "stats": the registry's
                # own locks make instrument reads safe, but the embedded
                # stats() scan walks the rounds dict.
                document = await asyncio.get_running_loop().run_in_executor(
                    self._accumulator, self.metrics_snapshot
                )
                await state.send(
                    framing.FRAME_STATS, framing.encode_metrics_frame(document)
                )
                return True
            if op == "stats":
                await state.drain_pending()
                # Through the accumulator like every other server access:
                # other connections' open_round/ingest calls mutate the
                # rounds dict on that thread, and dicts must not change
                # size under the stats scan.
                stats = await asyncio.get_running_loop().run_in_executor(
                    self._accumulator, self.stats
                )
                await state.send_control({"op": "stats", **stats})
                return True
            if op == "shutdown":
                if not self.allow_shutdown:
                    raise ServiceError(
                        "this gateway does not accept remote shutdown",
                        code="admission_rejected",
                    )
                await state.drain_pending()
                await state.send_control({"op": "bye"})
                self.request_stop()
                return False
            raise FrameError(f"unknown control op {op!r}")
        except FrameError as exc:
            # Framing abuse leaves the stream position untrusted: hang up.
            await state.send_error(exc)
            return False
        except ServiceError as exc:
            # Service-level failures (e.g. exporting an unknown round)
            # leave the stream intact; the client decides what to do.
            await state.send_error(exc)
            return True
        except (KeyError, TypeError, ValueError) as exc:
            await state.send_error(FrameError(f"malformed control message: {exc!r}"))
            return False

    def _export_round(self, round_id: int):
        """Close ``round_id`` for export and drop the server's message log.

        Nothing on the gateway reads that log (every client keeps its own
        transcript), so draining it at each round close keeps a
        long-lived gateway's memory bounded.
        """
        exported = self.server.export_shard(round_id)
        self.server.drain_messages()
        return exported

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Wire-bit accounting and admission counters, JSON-safe."""
        open_rounds = sum(1 for r in self.server.rounds.values() if r.is_open)
        return {
            "upload_bits": self.server.upload_bits(),
            "broadcast_bits": self.server.broadcast_bits(),
            "rounds_opened": len(self.server.rounds),
            "open_rounds": open_rounds,
            "connections_total": self.n_connections_total,
            "connections_live": len(self._connections),
            "frames_rejected": self.n_frames_rejected,
            "credits_per_connection": self.connection_credits,
            "max_inflight_batches": self.max_inflight_batches,
            "max_frame_bytes": self.max_frame_bytes,
        }

    def metrics_snapshot(self) -> dict:
        """The schema-tagged telemetry document ``repro stats`` scrapes."""
        return {
            "schema": METRICS_SCHEMA,
            "source": "gateway",
            "metrics": self.metrics.snapshot(),
            "stats": self.stats(),
        }


# --------------------------------------------------------------------------- #
# Synchronous hosting
# --------------------------------------------------------------------------- #
class GatewayHandle:
    """A gateway running on a background thread, for synchronous callers.

    Examples
    --------
    >>> from repro.net import start_gateway
    >>> with start_gateway() as handle:
    ...     host_port = handle.address
    >>> ":" in host_port
    True
    """

    def __init__(self, gateway: AggregationGateway):
        self.gateway = gateway
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.address: str = ""

    def start(self) -> "GatewayHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                await self.gateway.start()
                self.address = self.gateway.address
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.gateway.serve_until_stopped()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def close(self) -> None:
        """Stop the gateway and join its thread (safe to call twice)."""
        loop, thread = self._loop, self._thread
        if thread is None or not thread.is_alive():
            return
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self.gateway.request_stop)
            except RuntimeError:  # loop already closed under us
                pass
        thread.join(timeout=30.0)

    def __enter__(self) -> "GatewayHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_gateway(**kwargs) -> GatewayHandle:
    """Run an :class:`AggregationGateway` on a daemon thread.

    Keyword arguments go to the gateway constructor; the returned
    :class:`GatewayHandle` exposes the bound ``address`` and closes the
    gateway on ``close()`` / context-manager exit.
    """
    return GatewayHandle(AggregationGateway(**kwargs)).start()


def run_gateway_forever(gateway: AggregationGateway, *, on_ready=None) -> None:
    """Foreground-serve a gateway (what ``repro serve --listen`` calls).

    ``on_ready(address)`` fires once the port is bound.  Returns after a
    remote shutdown frame; Ctrl-C stops gracefully.
    """

    async def main() -> None:
        await gateway.start()
        if on_ready is not None:
            on_ready(gateway.address)
        await gateway.serve_until_stopped()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
