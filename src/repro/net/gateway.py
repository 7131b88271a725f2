"""The asyncio TCP gateway fronting an :class:`~repro.service.server.AggregationServer`.

One :class:`AggregationGateway` owns one aggregation server and serves the
frame protocol of :mod:`repro.net.framing` to any number of concurrent
client connections, all on one thread: the event loop handles each frame
by calling the embedded server directly, so it is the only thread that
touches the server and totals cannot race.

* **round lifecycle** — a broadcast-request frame opens a round (the
  gateway reads the broadcast's header with
  :func:`~repro.service.protocol.split_broadcast`, reconstructs the
  round's oracle and domain size from it and accounts the broadcast from
  the header; the packed prefix bits stay opaque, no prefix string is
  ever built); an ``export_shard`` control
  message closes it and returns the round's exact, **unestimated** counts
  as a shard-state frame — the gateway never estimates: the client
  merges (one state here, one per shard in a cluster) and estimates
  once;
* **ingest** — a report-batch frame is
  :meth:`~repro.service.server.AggregationServer.ingest` on the wire
  payload, then its ack: the same call, the same checks and the same
  errors as in process, so a gateway round is bit-identical to an
  in-process one in estimates, transcripts and accounting
  (``tests/test_gateway_equivalence.py``);
* **admission control** — frames above ``max_frame_bytes`` are refused on
  their 5-byte header alone (the body is never read); each connection
  gets ``connection_credits`` in its welcome message, its pipelining
  window (a batch costs one credit, its ack returns it).  A connection's
  next frame is read only after its previous batch is ingested and
  acked, so what one connection can make the gateway hold is one frame
  plus the TCP buffers;
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
sizes, domain allocations tied to broadcast size), while rounds have no
connection ownership — any connection may stream into or close any
round.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass

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
from repro.service.protocol import WireFormatError, split_broadcast, wire_bits
from repro.service.server import AggregationServer, ServiceError
from repro.utils.validation import check_positive

#: Protocol revision announced in the welcome message (2: packed-bit
#: ``RBC2`` round broadcasts).
PROTOCOL_VERSION = 2

DEFAULT_CONNECTION_CREDITS = 32

#: Largest ``recv`` of a connection.  asyncio's selector transport
#: allocates its full read size (256 KiB by default) for every ``recv``.
#: Above glibc's mmap threshold (128 KiB until a larger mapping is freed)
#: that is a fresh mapping per read, faulted in and unmapped again: 37–52
#: minor faults and ~25% more gateway CPU per 131 KB OUE batch.  Reads
#: under the threshold stay on the heap (docs/architecture.md, "Cold
#: start").
RECV_BYTES = 64 * 1024


@dataclass(frozen=True)
class _WireDomain:
    """The candidate domain as a round broadcast's header describes it.

    :meth:`AggregationServer.open_round` only reads these three fields,
    all of which the header carries verbatim.
    """

    size: int
    n_candidates: int
    prefix_length: int


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
    """Per-connection gateway state: the writer and the error counter.

    Only the connection's own handler writes to it, one frame at a time.
    """

    writer: asyncio.StreamWriter
    on_error: object = None  # callable(exc) counting errors by code

    async def send(self, kind: int, body: bytes) -> None:
        await self.send_buffers((framing.encode_frame(kind, body),))

    async def send_buffers(self, buffers) -> None:
        """Write one frame already cut into buffers, without joining them."""
        for buffer in buffers:
            self.writer.write(buffer)
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


class AggregationGateway:
    """Serves the aggregation wire protocol over TCP, fronting one server.

    Parameters
    ----------
    host / port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`address` once started).
    connection_credits:
        Report batches a connection may pipeline (send before their
        acks), announced in the welcome message: the client's window.
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
        connection_credits: int = DEFAULT_CONNECTION_CREDITS,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        allow_shutdown: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        trace_log: str | None = None,
        telemetry_sample: float = 0.0,
    ):
        check_positive("connection_credits", connection_credits)
        check_positive("max_frame_bytes", max_frame_bytes)
        self.host = host
        self.port = int(port)
        self.connection_credits = int(connection_credits)
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
        self._m_batch_ms = m.histogram("gateway_batch_ms")
        self._m_rounds_opened = m.counter("gateway_rounds_opened_total")
        self._m_shards_exported = m.counter("gateway_shards_exported_total")
        self._aio_server: asyncio.Server | None = None
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
        self._stopped = asyncio.Event()
        self._aio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    async def stop(self) -> None:
        """Stop accepting and tear down live connections."""
        self._stopping = True
        if self._aio_server is not None:
            self._aio_server.close()
            await self._aio_server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
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
        writer.transport.max_size = RECV_BYTES
        state = _Connection(writer=writer, on_error=self._count_error)
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
        span = self._frame_span("gateway.open_round", frame)
        try:
            # split_broadcast already ties the prefix count to the frame:
            # n <= 2**L, and the packed bits are exactly ceil(n*L/8) bytes.
            header, _ = split_broadcast(frame.body)
            n_prefixes = header.n_prefixes
            if not n_prefixes <= header.domain_size <= n_prefixes + 1:
                # The candidate domain is its prefixes plus at most a dummy
                # slot.  Enforcing that here ties the O(domain_size) shard
                # allocation to the broadcast's actual frame size — a tiny
                # frame cannot declare a multi-gigabyte domain.
                raise WireFormatError(
                    f"broadcast declares domain_size {header.domain_size} "
                    f"for {n_prefixes} prefixes (must be n or n+1)"
                )
            try:
                oracle = make_oracle(header.oracle_name, header.epsilon)
                domain = _WireDomain(
                    size=header.domain_size,
                    n_candidates=n_prefixes,
                    prefix_length=header.prefix_length,
                )
                round_id = self.server.open_round(
                    party=header.party,
                    level=header.level,
                    oracle=oracle,
                    domain=domain,
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
            span.finish(round_id=round_id, party=header.party, level=header.level)
        await state.send_control(
            {
                "op": "round_open",
                "round_id": round_id,
                "broadcast_bits": self.server.rounds[round_id].broadcast_bits,
            }
        )

    # ------------------------------------------------------------------ #
    # Batch ingestion
    # ------------------------------------------------------------------ #
    async def _on_report_batch(self, state: _Connection, frame: Frame) -> bool:
        try:
            round_id, seq, payload = framing.decode_report_frame(frame.body)
        except FrameError as exc:
            await state.send_error(exc)
            return False
        # Sampled wall-clock timing: every Nth batch, so an unsampled
        # gateway never reads the clock on this path.
        t0 = (
            time.perf_counter()
            if self._sample_every and self._m_batches.value % self._sample_every == 0
            else None
        )
        span = self._frame_span("gateway.ingest", frame, round_id=round_id, seq=seq)
        try:
            n = self.server.ingest(round_id, payload)
        except Exception as exc:  # noqa: BLE001 - every failure crosses the wire
            # WireFormatError/ServiceError keep their structured code; any
            # other failure ships as "internal" and the connection stays up.
            if span is not None:
                span.finish(error=f"{type(exc).__name__}: {exc}")
            await state.send_error(exc, seq=seq)
            return True
        self._m_batches.inc()
        self._m_reports.inc(n)
        if t0 is not None:
            self._m_batch_ms.observe((time.perf_counter() - t0) * 1e3)
        if span is not None:
            span.finish(n=n, payload_bits=wire_bits(payload))
        await state.send_control(
            {"op": "batch_ack", "round_id": round_id, "seq": seq, "n": n}
        )
        return True

    # ------------------------------------------------------------------ #
    # Control messages
    # ------------------------------------------------------------------ #
    async def _on_control(self, state: _Connection, body: bytes) -> bool:
        try:
            message = framing.decode_control(body)
            op = message.get("op")
            if op == "export_shard":
                # The gateway's half of every round close: every batch
                # this connection sent before it is already ingested, so
                # the export ships the raw (unestimated) state for the
                # client to estimate.  Nothing here reads the server's
                # message log (clients keep their own transcript), so it
                # is dropped at each close to keep memory bounded.
                round_id = int(message["round_id"])
                exported = self.server.export_shard(round_id)
                self.server.drain_messages()
                self._m_shards_exported.inc()
                await state.send_buffers(
                    framing.shard_state_frame_buffers(round_id, exported)
                )
                return True
            if op == "metrics":
                document = self.metrics_snapshot()
                await state.send(
                    framing.FRAME_STATS, framing.encode_metrics_frame(document)
                )
                return True
            if op == "stats":
                await state.send_control({"op": "stats", **self.stats()})
                return True
            if op == "shutdown":
                if not self.allow_shutdown:
                    raise ServiceError(
                        "this gateway does not accept remote shutdown",
                        code="admission_rejected",
                    )
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

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Wire-bit accounting and admission counters, JSON-safe."""
        return {
            "upload_bits": self.server.upload_bits(),
            "broadcast_bits": self.server.broadcast_bits(),
            "rounds_opened": self.server.rounds_opened,
            "open_rounds": len(self.server.rounds),
            "connections_total": self.n_connections_total,
            "connections_live": len(self._connections),
            "frames_rejected": self.n_frames_rejected,
            "credits_per_connection": self.connection_credits,
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
