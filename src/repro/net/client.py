"""Synchronous client side of the networked aggregation runtime.

Two layers:

* :class:`GatewayConnection` — one TCP connection speaking the frame
  protocol: round opening, credit-aware pipelined batch upload (it never
  exceeds the credit budget the gateway announced, and it measures the
  send→ack latency of every batch), round close, stats, shutdown.  A
  round closes the way a cluster round does, as its one-shard case: the
  gateway exports the exact counts and the client estimates once
  (:func:`~repro.service.server.estimate_exported`).  Error frames
  re-raise as the exact exception the in-memory path raises
  (:func:`repro.net.framing.error_to_exception`).
* :class:`RemoteAggregationServer` — a drop-in for
  :class:`~repro.service.server.AggregationServer` as far as
  :class:`~repro.service.server.ServiceRoundRunner` is concerned
  (``open_round`` / ``ingest_batch`` / ``finalize_round`` /
  ``drain_messages`` / ``shutdown``), executing every round over a gateway
  while keeping the **exact** wire-bit message log locally.  It can log
  locally without trusting the network because the codecs are canonical:
  the bytes it sends are the bytes the gateway accounts, which is the
  entire bit-identity argument.

:func:`run_over_network` mirrors
:func:`~repro.service.server.run_in_service_mode`: re-run any federated
mechanism with its frequency-oracle rounds served by a live gateway.
"""

from __future__ import annotations

import contextlib
import socket
import time

from repro.federation.messages import Message, MessageDirection
from repro.ldp.base import EstimationResult, FrequencyOracle
from repro.net import framing
from repro.net.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_BROADCAST_REQUEST,
    FRAME_ERROR,
    FRAME_HEADER_SIZE,
    FRAME_REPORT_BATCH,
    FRAME_ROUND_CONTROL,
    FRAME_SHARD_STATE,
    FRAME_STATS,
    TRACE_CONTEXT_SIZE,
    Frame,
    FrameError,
    OversizeFrameError,
)
from repro.service.protocol import (
    ReportBatch,
    RoundBroadcast,
    decode_report_batch,
    encode_broadcast,
    encode_report_batch,
    wire_bits,
)
from repro.service.server import ServiceError, estimate_exported


def parse_address(address: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` string (the one format every CLI flag uses)."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must look like HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"invalid port in address {address!r}") from exc


class GatewayConnection:
    """One synchronous connection to an aggregation gateway.

    Parameters
    ----------
    address:
        ``HOST:PORT`` of a listening gateway.
    timeout:
        Socket timeout for connect and every read, in seconds.  A stuck
        gateway therefore surfaces as ``socket.timeout``, never a hang.
    op_timeout:
        Optional **per-operation** deadline, in seconds, for the
        multi-read operations (:meth:`drain`, :meth:`finalize`,
        :meth:`export_shard`, :meth:`stats`).  The plain ``timeout`` is
        per *read*: a straggling gateway that trickles one ack per
        ``timeout - ε`` can stretch an operation almost indefinitely
        without ever tripping it.  With ``op_timeout`` set, every read
        inside one operation shares a single deadline, so a straggler
        injected mid-finalize surfaces as ``socket.timeout`` — which the
        cluster coordinator maps to the structured ``shard_unavailable``
        error — instead of stalling the whole merge barrier.

    Attributes
    ----------
    credits:
        The gateway's per-connection in-flight batch budget (from the
        welcome message); :meth:`send_batch` blocks on acks beyond it.
    latencies:
        Send→ack round-trip of every acked batch, in seconds, in ack
        order — the raw material of the load generator's percentiles.
    duplicate_acks:
        Count of acknowledgement frames for sequence numbers that were
        not outstanding (duplicated or replayed acks, e.g. injected by a
        fault proxy).  They are ignored for accounting — the ledger is
        keyed by seq precisely so replays cannot double-count — but the
        counter makes the decision observable and testable.
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 60.0,
        op_timeout: float | None = None,
        tracer=None,
    ):
        host, port = parse_address(address)
        self.address = f"{host}:{port}"
        self.timeout = float(timeout)
        self.op_timeout = None if op_timeout is None else float(op_timeout)
        self._deadline: float | None = None
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self._fp = self._sock.makefile("rb")
        self.latencies: list[float] = []
        self._sent_at: dict[int, float] = {}
        self._next_seq = 0
        self.duplicate_acks = 0
        self.credits = 1
        self.max_frame_bytes = DEFAULT_MAX_FRAME_BYTES
        self.tracer = tracer
        self._trace_wire = False
        self._round_spans: dict[int, object] = {}
        self._batch_spans: dict[int, object] = {}
        try:
            welcome = self._expect_control("welcome")
        except BaseException:
            # A failed handshake (non-gateway peer, timeout) must not leak
            # the descriptor — retry loops would exhaust the fd table.
            self.close()
            raise
        self.credits = int(welcome.get("credits", 1))
        self.max_frame_bytes = int(
            welcome.get("max_frame_bytes", DEFAULT_MAX_FRAME_BYTES)
        )
        self.protocol = int(welcome.get("protocol", 0))
        # The trace extension is negotiated: frames are stamped only when
        # a tracer is attached AND the welcome announced support, so a
        # peer that predates the extension never sees a flagged kind byte.
        self._trace_wire = tracer is not None and bool(welcome.get("trace"))

    # ------------------------------------------------------------------ #
    # Frame plumbing
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def _operation_deadline(self, seconds: float | None):
        """Bound all reads of one operation by a single shared deadline.

        The outermost operation wins: nested operations (``export_shard``
        calls ``drain``) run under the deadline already in force rather
        than extending it.  On exit the socket's per-read timeout is
        restored.
        """
        if seconds is None or self._deadline is not None:
            yield
            return
        self._deadline = time.perf_counter() + float(seconds)
        try:
            yield
        finally:
            self._deadline = None
            try:
                self._sock.settimeout(self.timeout)
            except OSError:  # pragma: no cover - already closed
                pass

    def _read_exact(self, n: int) -> bytes:
        if self._deadline is not None:
            remaining = self._deadline - time.perf_counter()
            if remaining <= 0:
                raise socket.timeout(
                    f"operation deadline expired reading from {self.address}"
                )
            self._sock.settimeout(min(self.timeout, remaining))
        data = self._fp.read(n)
        if data is None or len(data) < n:
            raise ConnectionError(
                f"gateway {self.address} closed the connection mid-frame"
            )
        return data

    def _read_frame(self) -> Frame:
        length, raw_kind = framing.parse_frame_header(self._read_exact(FRAME_HEADER_SIZE))
        kind, has_trace = framing.split_frame_kind(raw_kind)
        # ``self.max_frame_bytes`` is the gateway's *ingress* bound (what
        # we may upload); frames the gateway sends back — shard states
        # scale with the domain, metrics documents with the gateway's
        # series — are only sanity-capped by the client's own generous
        # default.
        framing.check_frame_header(
            length, kind, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES
        )
        trace = self._read_exact(TRACE_CONTEXT_SIZE) if has_trace else None
        body = self._read_exact(length) if length else b""
        if kind == FRAME_ERROR:
            # A batch-level rejection carries the failed seq: return its
            # credit before raising, so a caller that catches the error
            # (the structured codes exist to be branched on) keeps a
            # consistent ledger instead of waiting forever for its ack.
            seq = framing.decode_control(body).get("seq")
            if seq is not None:
                self._sent_at.pop(int(seq), None)
                span = self._batch_spans.pop(int(seq), None)
                if span is not None:
                    span.finish(error="rejected")
            raise framing.decode_error(body)
        return Frame(kind=kind, body=body, trace=trace)

    def _send(self, kind: int, body: bytes, *, trace: bytes | None = None) -> None:
        if len(body) > self.max_frame_bytes:
            # Fail locally with the structured error instead of pushing a
            # body the gateway will refuse on its header — whose error
            # frame a blocked sendall would never get to read.
            raise OversizeFrameError(
                f"frame of {len(body)} bytes exceeds the gateway's "
                f"{self.max_frame_bytes}-byte bound (shrink batch_size)"
            )
        self._sock.sendall(framing.encode_frame(kind, body, trace=trace))

    def _record_ack(self, message: dict) -> None:
        seq = int(message.get("seq", -1))
        if seq not in self._sent_at:
            # An ack for a seq that is not outstanding: a duplicate (or a
            # replay injected on the wire).  The ledger is keyed by seq so
            # a replay can never double-count a batch or mint credit —
            # count it instead of pretending it did not happen.
            self.duplicate_acks += 1
            return
        sent = self._sent_at.pop(seq)
        self.latencies.append(time.perf_counter() - sent)
        span = self._batch_spans.pop(seq, None)
        if span is not None:
            span.finish(n=message.get("n"))

    def _next_message(self) -> Frame:
        """Next non-ack frame; stray batch acks are absorbed on the way."""
        while True:
            frame = self._read_frame()
            if frame.kind == FRAME_ROUND_CONTROL:
                message = framing.decode_control(frame.body)
                if message.get("op") == "batch_ack":
                    self._record_ack(message)
                    continue
                return Frame(kind=frame.kind, body=frame.body)
            return frame

    def _expect_control(self, op: str) -> dict:
        frame = self._next_message()
        if frame.kind != FRAME_ROUND_CONTROL:
            raise FrameError(
                f"expected a control frame ({op}), got frame kind {frame.kind}"
            )
        message = framing.decode_control(frame.body)
        if message.get("op") != op:
            raise FrameError(
                f"expected control op {op!r}, got {message.get('op')!r}"
            )
        return message

    # ------------------------------------------------------------------ #
    # Protocol operations
    # ------------------------------------------------------------------ #
    @property
    def outstanding(self) -> int:
        """Batches sent but not yet acknowledged."""
        return len(self._sent_at)

    def open_round(self, broadcast: RoundBroadcast) -> tuple[int, int]:
        """Open a round on the gateway; ``(round_id, broadcast_bits)``."""
        span = None
        trace = None
        if self.tracer is not None:
            # The root span of everything this round causes; its context
            # rides the broadcast frame so the gateway's open_round span
            # joins the same trace.
            span = self.tracer.start_span(
                "client.round", party=broadcast.party, level=broadcast.level
            )
            if self._trace_wire:
                trace = span.context.to_bytes()
        self._send(FRAME_BROADCAST_REQUEST, encode_broadcast(broadcast), trace=trace)
        message = self._expect_control("round_open")
        round_id = int(message["round_id"])
        if span is not None:
            span.set(round_id=round_id)
            self._round_spans[round_id] = span
        return round_id, int(message["broadcast_bits"])

    def send_batch(self, round_id: int, payload: bytes) -> int:
        """Pipeline one encoded report batch; returns its sequence number.

        Blocks for acknowledgements only when the credit budget is
        exhausted — the credit-based backpressure loop.
        """
        while self.outstanding >= self.credits:
            self._receive_ack()
        seq = self._next_seq
        self._next_seq += 1
        span = None
        trace = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "client.batch",
                parent=self._round_spans.get(round_id),
                round_id=round_id,
                seq=seq,
            )
            if self._trace_wire:
                trace = span.context.to_bytes()
        start = time.perf_counter()
        # Record only after the frame is actually away: a refused send
        # (local oversize check) must not leave a phantom outstanding
        # batch whose ack the ledger would wait for forever.
        self._send(
            FRAME_REPORT_BATCH,
            framing.encode_report_frame(round_id, seq, payload),
            trace=trace,
        )
        self._sent_at[seq] = start
        if span is not None:
            self._batch_spans[seq] = span
        return seq

    def _receive_ack(self) -> None:
        frame = self._read_frame()
        if frame.kind != FRAME_ROUND_CONTROL:
            raise FrameError(
                f"expected a batch ack, got frame kind {frame.kind}"
            )
        message = framing.decode_control(frame.body)
        if message.get("op") != "batch_ack":
            raise FrameError(
                f"expected a batch ack, got control op {message.get('op')!r}"
            )
        self._record_ack(message)

    def drain(self, *, deadline: float | None = None) -> None:
        """Block until every pipelined batch has been acknowledged.

        ``deadline`` (default: the connection's ``op_timeout``) bounds
        the *whole* drain, not each ack read.
        """
        with self._operation_deadline(
            deadline if deadline is not None else self.op_timeout
        ):
            while self.outstanding:
                self._receive_ack()

    def finalize(
        self, round_id: int, *, deadline: float | None = None
    ) -> EstimationResult:
        """Close the round: export its exact counts, estimate them here.

        A single gateway is a one-shard cluster: :meth:`export_shard`
        plus the same :func:`~repro.service.server.estimate_exported`
        the cluster barrier runs.  ``deadline`` bounds the export, as
        there.
        """
        return estimate_exported([self.export_shard(round_id, deadline=deadline)])

    def export_shard(self, round_id: int, *, deadline: float | None = None):
        """Drain, close the round, and lift off its raw shard state.

        ``{"op": "export_shard"}`` on the wire: the gateway answers with
        its **exact** unestimated int64 counts
        (:class:`~repro.service.server.ExportedShardState`) for the
        client to merge (across shards, in a cluster) and estimate once.
        One ``deadline`` (default: ``op_timeout``) covers the drain *and*
        the state read, so a gateway that straggles mid-close surfaces
        ``socket.timeout`` instead of stretching the caller's merge
        barrier one per-read timeout at a time.
        """
        with self._operation_deadline(
            deadline if deadline is not None else self.op_timeout
        ):
            self.drain()
            self._send(
                FRAME_ROUND_CONTROL,
                framing.encode_control({"op": "export_shard", "round_id": int(round_id)}),
            )
            frame = self._next_message()
            if frame.kind != FRAME_SHARD_STATE:
                raise FrameError(
                    f"expected a shard-state frame, got frame kind {frame.kind}"
                )
            echoed, state = framing.decode_shard_state_frame(frame.body)
            if echoed != int(round_id):
                raise FrameError(
                    f"shard state answers round {echoed}, expected {round_id}"
                )
            span = self._round_spans.pop(int(round_id), None)
            if span is not None:
                span.finish(op="export_shard", n_users=state.n_users)
            return state

    def stats(self) -> dict:
        """The gateway's accounting/admission counters."""
        with self._operation_deadline(self.op_timeout):
            self.drain()
            self._send(FRAME_ROUND_CONTROL, framing.encode_control({"op": "stats"}))
            message = self._expect_control("stats")
        message.pop("op", None)
        return message

    def metrics(self) -> dict:
        """Scrape the gateway's full telemetry document (``op: metrics``).

        The answer is a :data:`~repro.obs.registry.METRICS_SCHEMA` frame:
        the gateway's metric registry snapshot (gateway + service series)
        plus its classic :meth:`stats` counters — what ``repro stats``
        pretty-prints.
        """
        with self._operation_deadline(self.op_timeout):
            self.drain()
            self._send(FRAME_ROUND_CONTROL, framing.encode_control({"op": "metrics"}))
            frame = self._next_message()
            if frame.kind != FRAME_STATS:
                raise FrameError(
                    f"expected a stats frame, got frame kind {frame.kind}"
                )
            return framing.decode_metrics_frame(frame.body)

    def shutdown_gateway(self) -> None:
        """Ask the gateway to stop serving (it answers ``bye`` first)."""
        self.drain()
        self._send(FRAME_ROUND_CONTROL, framing.encode_control({"op": "shutdown"}))
        self._expect_control("bye")

    def close(self) -> None:
        # Spans a fault cut short still get a record (the trace would
        # otherwise silently lose its tail).
        for span in list(self._batch_spans.values()):
            span.finish(error="connection_closed")
        self._batch_spans.clear()
        for span in list(self._round_spans.values()):
            span.finish(error="connection_closed")
        self._round_spans.clear()
        try:
            self._fp.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "GatewayConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteAggregationServer:
    """An :class:`~repro.service.server.AggregationServer` living elsewhere.

    Implements the slice of the server interface the service round runner
    and the mechanism base class use, executing each operation over a
    gateway connection (established lazily, so instances pickle into
    process-backend workers).  The wire-bit message log is maintained
    client-side, operation for operation like the in-memory server's —
    same kinds, same order, same exact bit counts — which is what makes a
    networked mechanism run transcript-identical to service mode.
    """

    def __init__(self, address: str, *, timeout: float = 60.0):
        self.address = str(address)
        self.timeout = float(timeout)
        self._connection: GatewayConnection | None = None
        self._messages: list[Message] = []
        self._upload_bits = 0
        self._broadcast_bits = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_connection"] = None  # sockets don't pickle; reconnect lazily
        return state

    def _connect(self) -> GatewayConnection:
        """Build the underlying connection; the cluster coordinator's
        override is the only other implementation
        (:class:`repro.cluster.coordinator.ClusterCoordinator`)."""
        return GatewayConnection(self.address, timeout=self.timeout)

    def _conn(self) -> GatewayConnection:
        if self._connection is None:
            self._connection = self._connect()
        return self._connection

    # ------------------------------------------------------------------ #
    # Round lifecycle (the AggregationServer slice ServiceRoundRunner uses)
    # ------------------------------------------------------------------ #
    def open_round(
        self, *, party: str, level: int, oracle: FrequencyOracle, domain
    ) -> int:
        broadcast = RoundBroadcast(
            party=party,
            level=int(level),
            oracle_name=oracle.name,
            epsilon=oracle.epsilon,
            domain_size=int(domain.size),
            prefixes=tuple(domain.prefixes),
        )
        local_bits = wire_bits(encode_broadcast(broadcast))
        round_id, remote_bits = self._conn().open_round(broadcast)
        if remote_bits != local_bits:
            raise ServiceError(
                f"gateway accounted the round broadcast at {remote_bits} bits, "
                f"the canonical encoding is {local_bits} — bit-identity breach"
            )
        self._broadcast_bits += local_bits
        self._messages.append(
            Message(
                direction=MessageDirection.SERVER_TO_PARTY,
                party=party,
                kind="service_round_open",
                payload_bits=local_bits,
                level=int(level),
            )
        )
        return round_id

    def ingest(self, round_id: int, payload: bytes) -> int:
        """Pipeline one already-encoded wire batch into a remote round.

        Mirrors :meth:`AggregationServer.ingest`, decoding the payload
        locally so the message log carries the same party/level the
        in-memory server would have recorded.
        """
        return self._send_payload(round_id, decode_report_batch(payload), payload)

    def ingest_batch(self, round_id: int, batch: ReportBatch) -> int:
        """Encode one batch, pipeline it, and log it exactly like the server.

        The ack (and with it any structured server error) surfaces at the
        latest on :meth:`finalize_round` — batches are fire-and-forget up
        to the credit budget, which is what keeps upload throughput off
        the round-trip time.
        """
        return self._send_payload(round_id, batch, encode_report_batch(batch))

    def _send_payload(self, round_id: int, batch: ReportBatch, payload: bytes) -> int:
        bits = wire_bits(payload)
        self._conn().send_batch(round_id, payload)
        self._upload_bits += bits
        self._messages.append(
            Message(
                direction=MessageDirection.PARTY_TO_SERVER,
                party=batch.party,
                kind="report_batch",
                payload_bits=bits,
                level=batch.level,
            )
        )
        return batch.n_users

    def finalize_round(self, round_id: int) -> EstimationResult:
        return self._conn().finalize(round_id)

    # ------------------------------------------------------------------ #
    # Accounting (client-side mirror of the in-memory server's)
    # ------------------------------------------------------------------ #
    @property
    def messages(self) -> list[Message]:
        return list(self._messages)

    def drain_messages(self) -> list[Message]:
        messages, self._messages = self._messages, []
        return messages

    def upload_bits(self) -> int:
        return self._upload_bits

    def broadcast_bits(self) -> int:
        return self._broadcast_bits

    def gateway_stats(self) -> dict:
        """Ask the gateway for its global accounting counters."""
        return self._conn().stats()

    def shutdown(self) -> None:
        """Close this client's connection (the gateway keeps serving)."""
        if self._connection is not None:
            try:
                self._connection.close()
            finally:
                self._connection = None


def run_over_network(mechanism, dataset, address: str, rng=None):
    """Re-run a federated mechanism with its FO rounds served by a gateway.

    The network twin of
    :func:`~repro.service.server.run_in_service_mode`: copies the
    mechanism's configuration with ``execution_mode="network"`` pointed at
    ``address`` and runs it on ``dataset``.  For a fixed seed the result —
    estimates, transcripts, exact wire bits — is bit-identical to service
    mode (``tests/test_net_equivalence.py``).
    """
    config = mechanism.config.with_updates(
        execution_mode="network",
        gateway=str(address),
        simulation_mode="per_user",
    )
    return type(mechanism)(config).run(dataset, rng)
