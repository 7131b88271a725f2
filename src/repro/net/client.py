"""Synchronous client side of the networked aggregation runtime.

* :class:`GatewayConnection` — one TCP connection speaking the frame
  protocol: round opening, credit-aware pipelined batch upload (it never
  exceeds the credit budget the gateway announced, and it measures the
  send→ack latency of every batch), round close, stats, shutdown.  A
  round closes the way a cluster round does, as its one-shard case: the
  gateway exports the exact counts and the client estimates once
  (:func:`~repro.service.server.estimate_exported`).  Error frames
  re-raise as the exact exception the in-memory path raises
  (:func:`repro.net.framing.error_to_exception`).  It is the per-shard
  transport under :class:`~repro.cluster.coordinator.ClusterConnection`.
* :func:`parse_address` / :func:`parse_cluster_addresses` — the one
  address format: ``HOST:PORT``, or a comma-joined list of them.  A
  single gateway is a one-shard cluster.
* :func:`run_over_network` mirrors
  :func:`~repro.service.server.run_in_service_mode`: re-run any federated
  mechanism with its frequency-oracle rounds served by a live gateway or
  a shard cluster, through
  :class:`~repro.cluster.coordinator.ClusterCoordinator`.
"""

from __future__ import annotations

import contextlib
import socket
import time

from repro.ldp.base import EstimationResult
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
from repro.service.protocol import RoundBroadcast, encode_broadcast
from repro.service.server import estimate_exported


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

    def open_round(
        self, broadcast: RoundBroadcast, *, payload: bytes | None = None
    ) -> tuple[int, int]:
        """Open a round on the gateway; ``(round_id, broadcast_bits)``.

        ``payload`` is ``encode_broadcast(broadcast)`` when the caller
        already holds it: a cluster encodes a round's broadcast once and
        sends those bytes to every shard.
        """
        if payload is None:
            payload = encode_broadcast(broadcast)
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
        self._send(FRAME_BROADCAST_REQUEST, payload, trace=trace)
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


def parse_cluster_addresses(addresses) -> list[str]:
    """Normalise a cluster address (comma-joined string or iterable).

    Every element must be ``HOST:PORT``; duplicates are rejected because
    opening the same gateway twice would double-count its sub-round.
    A single address is a valid (1-shard) cluster.
    """
    if isinstance(addresses, str):
        parts = [part.strip() for part in addresses.split(",")]
    else:
        parts = [str(part).strip() for part in addresses]
    if not parts or any(not part for part in parts):
        raise ValueError(
            f"cluster address must be a non-empty list of HOST:PORT, got {addresses!r}"
        )
    normalised = []
    for part in parts:
        host, port = parse_address(part)
        normalised.append(f"{host}:{port}")
    if len(set(normalised)) != len(normalised):
        raise ValueError(f"cluster address lists a shard twice: {normalised}")
    return normalised


def run_over_network(mechanism, dataset, address, rng=None):
    """Re-run a federated mechanism with its FO rounds served over the network.

    The network twin of
    :func:`~repro.service.server.run_in_service_mode`: copies the
    mechanism's configuration with ``execution_mode="network"`` pointed at
    ``address`` — one ``HOST:PORT`` gateway, or a comma-joined string or
    iterable of shard gateways — and runs it on ``dataset``.  For a fixed
    seed the result — estimates, transcripts, exact wire bits — is
    bit-identical to service mode at any shard count
    (``tests/test_net_equivalence.py``, ``tests/test_cluster_equivalence.py``).
    """
    config = mechanism.config.with_updates(
        execution_mode="network",
        gateway=",".join(parse_cluster_addresses(address)),
        simulation_mode="per_user",
    )
    return type(mechanism)(config).run(dataset, rng)
