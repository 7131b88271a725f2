"""Typed, length-prefixed message frames for the networked runtime.

The service codecs (:mod:`repro.service.protocol`) define *what* a report
batch or round broadcast looks like as bytes; this module defines how those
bytes travel over a socket.  A frame is::

    u32 LE body length | u8 frame kind | body

and the body of each kind wraps the existing canonical codecs **unchanged**:

* ``FRAME_BROADCAST_REQUEST`` — an encoded :class:`~repro.service.protocol.
  RoundBroadcast` (the client asks the gateway to open that round);
* ``FRAME_REPORT_BATCH`` — ``u32 round_id | u32 seq | encoded report
  batch`` (the ``seq`` is echoed in the ack, which is how the client
  measures per-batch latency and runs the credit loop);
* ``FRAME_ROUND_CONTROL`` — a canonical-JSON control message (welcome /
  round_open / batch_ack / export_shard / metrics / stats / shutdown);
* ``FRAME_ERROR`` — a structured ``{code, message}`` document mapping back
  to the exact exception the in-memory path would have raised
  (:func:`error_to_exception`);
* ``FRAME_SHARD_STATE`` — ``u32 round_id`` plus a lossless
  :class:`~repro.service.server.ExportedShardState` encoding
  (:func:`encode_shard_state`): a gateway's raw, **unestimated**
  accumulator counts, the answer to ``{"op": "export_shard"}`` and the
  only way a round closes over the wire — the client collects one per
  shard (one from a single gateway), merges them and estimates once;
* ``FRAME_STATS`` — a canonical-JSON telemetry document
  (:data:`repro.obs.registry.METRICS_SCHEMA`): the gateway's answer to a
  ``{"op": "metrics"}`` control message, what ``repro stats`` scrapes.

**Trace extension.**  The kind byte's high bit
(:data:`FRAME_FLAG_TRACE`) marks a frame that carries a
:data:`TRACE_CONTEXT_SIZE`-byte span context *between header and body*
(``repro.obs.trace.SpanContext``).  The extension is negotiated — a
client only stamps frames after the gateway's welcome announced
``"trace": true`` — so old peers never see a flagged kind byte, and the
extension bytes are **not counted** in the u32 body length: the body (and
with it every wire-bit total) is byte-identical with tracing on or off.

Because the payload inside a frame is byte-for-byte what the in-memory
service accounts, the frame header is pure transport: wire-bit totals of a
networked run equal the in-memory service run exactly (the bit-identity
invariant ``tests/test_net_equivalence.py`` pins).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.service.protocol import WireFormatError
from repro.service.server import (
    SERVICE_ERROR_CODES,
    ExportedShardState,
    ServiceError,
)

# --------------------------------------------------------------------------- #
# Frame kinds
# --------------------------------------------------------------------------- #
FRAME_ROUND_CONTROL = 1
FRAME_REPORT_BATCH = 2
FRAME_BROADCAST_REQUEST = 3
FRAME_ERROR = 4
# Kind 5 (a gateway-side estimate) is retired and stays unassigned.
FRAME_SHARD_STATE = 6
FRAME_STATS = 7

FRAME_KINDS: tuple[int, ...] = (
    FRAME_ROUND_CONTROL,
    FRAME_REPORT_BATCH,
    FRAME_BROADCAST_REQUEST,
    FRAME_ERROR,
    FRAME_SHARD_STATE,
    FRAME_STATS,
)

#: Human-readable kind names, for metric labels and span attributes.
FRAME_KIND_NAMES: dict[int, str] = {
    FRAME_ROUND_CONTROL: "round_control",
    FRAME_REPORT_BATCH: "report_batch",
    FRAME_BROADCAST_REQUEST: "broadcast_request",
    FRAME_ERROR: "error",
    FRAME_SHARD_STATE: "shard_state",
    FRAME_STATS: "stats",
}


def frame_kind_name(kind: int) -> str:
    """The label a metric uses for ``kind`` (``"kind_<n>"`` if unknown)."""
    return FRAME_KIND_NAMES.get(int(kind), f"kind_{int(kind)}")


#: High bit of the kind byte: this frame carries a span context between
#: header and body.  Negotiated via the welcome message, so peers that
#: predate it are never sent a flagged kind.
FRAME_FLAG_TRACE = 0x80
FRAME_KIND_MASK = 0x7F

#: Wire size of the span-context frame extension
#: (:data:`repro.obs.trace.CONTEXT_SIZE`): 16-byte trace id + 8-byte span id.
TRACE_CONTEXT_SIZE = 24


def split_frame_kind(raw_kind: int) -> tuple[int, bool]:
    """``(kind, has_trace)`` from a kind byte as read off the wire."""
    return int(raw_kind) & FRAME_KIND_MASK, bool(raw_kind & FRAME_FLAG_TRACE)

#: Default bound on one frame's body.  Generous for report batches (the
#: widest in-repo batch, OUE at the default 65 536-report bound over a
#: 4 097-candidate domain, is ~34 MB short of it) yet small enough that a
#: garbage length prefix cannot make the gateway buffer gigabytes.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("<IB")
_U32 = struct.Struct("<I")
_SHARD_STATE_MAGIC = b"SHS1"


class FrameError(WireFormatError):
    """A byte stream violates the framing layer (before any payload codec)."""


class OversizeFrameError(FrameError):
    """A frame declares a body larger than the negotiated bound."""


# --------------------------------------------------------------------------- #
# Frames
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Frame:
    """One decoded frame: kind tag, raw body bytes, optional span context."""

    kind: int
    body: bytes
    trace: bytes | None = None


def encode_frame(kind: int, body: bytes, *, trace: bytes | None = None) -> bytes:
    """Serialise one frame (length prefix + kind tag + body).

    ``trace`` (exactly :data:`TRACE_CONTEXT_SIZE` bytes) rides between
    header and body under the :data:`FRAME_FLAG_TRACE` kind bit; the u32
    length prefix still counts the body alone, so the frame's accounted
    payload is byte-identical with or without it.
    """
    if kind not in FRAME_KINDS:
        raise FrameError(f"unknown frame kind {kind!r}")
    if len(body) > 0xFFFFFFFF:  # pragma: no cover - 4 GiB frame
        raise FrameError(f"frame body of {len(body)} bytes exceeds the u32 prefix")
    if trace is None:
        return _HEADER.pack(len(body), kind) + body
    if len(trace) != TRACE_CONTEXT_SIZE:
        raise FrameError(
            f"trace context must be {TRACE_CONTEXT_SIZE} bytes, got {len(trace)}"
        )
    return _HEADER.pack(len(body), kind | FRAME_FLAG_TRACE) + trace + body


def check_frame_header(length: int, kind: int, *, max_frame_bytes: int) -> None:
    """Validate a parsed header before the body is read off the socket.

    Raising :class:`OversizeFrameError` *here* — knowing only the 5 header
    bytes — is the oversize-rejection contract: the receiver never
    allocates or reads a body it has already decided to refuse.
    """
    if kind not in FRAME_KINDS:
        raise FrameError(f"unknown frame kind {kind!r}")
    if length > max_frame_bytes:
        raise OversizeFrameError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte bound"
        )


def parse_frame_header(header: bytes) -> tuple[int, int]:
    """``(body_length, kind)`` from the fixed 5-byte frame header."""
    if len(header) != _HEADER.size:
        raise FrameError(f"frame header is {len(header)} bytes, expected {_HEADER.size}")
    length, kind = _HEADER.unpack(header)
    return int(length), int(kind)


FRAME_HEADER_SIZE = _HEADER.size


# --------------------------------------------------------------------------- #
# Report-batch frame bodies
# --------------------------------------------------------------------------- #
_BATCH_PREFIX = struct.Struct("<II")


def encode_report_frame(round_id: int, seq: int, payload: bytes) -> bytes:
    """Body of a ``FRAME_REPORT_BATCH``: routing prefix + canonical batch bytes."""
    return _BATCH_PREFIX.pack(round_id, seq) + payload


def decode_report_frame(body: bytes) -> tuple[int, int, memoryview]:
    """``(round_id, seq, payload)`` of a report-batch frame body.

    The payload is a view of ``body``, not a copy: a report batch can be
    past glibc's mmap threshold, and every copy would be one more large
    allocation per batch (docs/architecture.md, "Cold start").
    """
    if len(body) < _BATCH_PREFIX.size:
        raise FrameError(
            f"report frame body is {len(body)} bytes, needs at least "
            f"{_BATCH_PREFIX.size}"
        )
    round_id, seq = _BATCH_PREFIX.unpack_from(body)
    return int(round_id), int(seq), memoryview(body)[_BATCH_PREFIX.size :]


# --------------------------------------------------------------------------- #
# Control + error frame bodies (canonical JSON)
# --------------------------------------------------------------------------- #
def encode_control(message: dict) -> bytes:
    """Canonical-JSON body of a ``FRAME_ROUND_CONTROL``."""
    return json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_control(body: bytes) -> dict:
    """Parse a control body; anything but a JSON mapping is a frame error."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"control body does not parse: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError(
            f"control body must be a JSON object, got {type(message).__name__}"
        )
    return message


#: Error codes owned by the transport layer (the service-level codes live
#: in :data:`repro.service.server.SERVICE_ERROR_CODES`).
ERROR_WIRE_FORMAT = "wire_format"
ERROR_FRAME = "frame"
ERROR_OVERSIZE_FRAME = "oversize_frame"
ERROR_INTERNAL = "internal"


def exception_to_error(exc: BaseException) -> tuple[str, str]:
    """``(code, message)`` an error frame should carry for ``exc``."""
    if isinstance(exc, OversizeFrameError):
        return ERROR_OVERSIZE_FRAME, str(exc)
    if isinstance(exc, FrameError):
        return ERROR_FRAME, str(exc)
    if isinstance(exc, WireFormatError):
        return ERROR_WIRE_FORMAT, str(exc)
    if isinstance(exc, ServiceError):
        return exc.code, str(exc)
    return ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"


def error_to_exception(code: str, message: str) -> Exception:
    """The exception an error frame maps back to.

    The satellite contract of the structured error codes: a remote failure
    re-raises as the *same* exception type (and, for
    :class:`~repro.service.server.ServiceError`, the same ``code``) the
    in-memory :class:`~repro.service.server.AggregationServer` raises
    locally, so callers cannot tell transport from library.
    """
    if code == ERROR_OVERSIZE_FRAME:
        return OversizeFrameError(message)
    if code == ERROR_FRAME:
        return FrameError(message)
    if code == ERROR_WIRE_FORMAT:
        return WireFormatError(message)
    if code in SERVICE_ERROR_CODES:
        return ServiceError(message, code=code)
    return ServiceError(f"[{code}] {message}")


def encode_error(exc: BaseException, *, seq: int | None = None) -> bytes:
    """Body of a ``FRAME_ERROR`` describing ``exc``."""
    code, message = exception_to_error(exc)
    body = {"code": code, "message": message}
    if seq is not None:
        body["seq"] = int(seq)
    return encode_control(body)


def decode_error(body: bytes) -> Exception:
    """Reconstruct the mapped exception from an error-frame body."""
    message = decode_control(body)
    try:
        return error_to_exception(str(message["code"]), str(message["message"]))
    except KeyError as exc:
        raise FrameError(f"error frame misses the {exc} key") from exc


# --------------------------------------------------------------------------- #
# Shard-state frames (lossless ExportedShardState)
# --------------------------------------------------------------------------- #
def _split_shard_state(state: ExportedShardState) -> tuple[bytes, np.ndarray]:
    """The shard-state encoding cut before its counts.

    Returns the magic, the header length and the canonical JSON header as
    one ``bytes``, and the counts as a contiguous little-endian ``int64``
    array, so a caller can send them without joining (and so copying)
    the ``O(domain_size)`` counts.
    """
    header = json.dumps(
        {
            "party": state.party,
            "level": int(state.level),
            "oracle": state.oracle_name,
            "epsilon": float(state.epsilon),
            "domain_size": int(state.domain_size),
            "n_users": int(state.n_users),
            "n_batches": int(state.n_batches),
            "upload_bits": int(state.upload_bits),
            "broadcast_bits": int(state.broadcast_bits),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    counts = np.ascontiguousarray(state.counts, dtype="<i8")
    d = int(state.domain_size)
    if counts.shape != (d,):
        raise FrameError(
            f"shard-state counts must have shape ({d},), got {counts.shape}"
        )
    return _SHARD_STATE_MAGIC + _U32.pack(len(header)) + header, counts


def encode_shard_state(state: ExportedShardState) -> bytes:
    """Serialise one shard's exported round state without losing a bit.

    Scalar round metadata travels as a canonical JSON header, the exact
    support counts as a raw little-endian ``int64`` buffer.  Counts are
    integers (never estimates), so merging decoded states on the client
    is exact — the property every networked bit-identity invariant
    rests on.
    """
    head, counts = _split_shard_state(state)
    return head + counts.tobytes()


def decode_shard_state(data: bytes) -> ExportedShardState:
    """Reconstruct an :class:`~repro.service.server.ExportedShardState`."""
    if data[:4] != _SHARD_STATE_MAGIC:
        raise FrameError(
            f"bad shard-state magic {data[:4]!r}, expected {_SHARD_STATE_MAGIC!r}"
        )
    try:
        (header_len,) = _U32.unpack_from(data, 4)
    except struct.error as exc:
        raise FrameError(f"shard-state header does not parse: {exc}") from exc
    offset = 4 + _U32.size
    if offset + header_len > len(data):
        raise FrameError("shard-state header overruns the buffer")
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
        party = str(header["party"])
        level = int(header["level"])
        oracle_name = header["oracle"]
        epsilon = float(header["epsilon"])
        domain_size = int(header["domain_size"])
        n_users = int(header["n_users"])
        n_batches = int(header["n_batches"])
        upload_bits = int(header["upload_bits"])
        broadcast_bits = int(header["broadcast_bits"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"shard-state header is malformed: {exc!r}") from exc
    offset += header_len
    expected = offset + domain_size * 8
    if len(data) != expected:
        raise FrameError(
            f"shard-state payload is {len(data)} bytes, expected {expected}"
        )
    counts = np.frombuffer(data, dtype="<i8", count=domain_size, offset=offset)
    return ExportedShardState(
        party=party,
        level=level,
        oracle_name=oracle_name,
        epsilon=epsilon,
        domain_size=domain_size,
        n_users=n_users,
        n_batches=n_batches,
        upload_bits=upload_bits,
        broadcast_bits=broadcast_bits,
        counts=counts.astype(np.int64),
    )


def encode_shard_state_frame(round_id: int, state: ExportedShardState) -> bytes:
    """Body of a ``FRAME_SHARD_STATE``: the round id plus the encoded state."""
    return _U32.pack(round_id) + encode_shard_state(state)


def shard_state_frame_buffers(
    round_id: int, state: ExportedShardState
) -> tuple[bytes, memoryview]:
    """A whole shard-state frame as two buffers that share the counts.

    Written in turn, they are the bytes of ``encode_frame(FRAME_SHARD_STATE,
    encode_shard_state_frame(round_id, state))``: the frame header, round
    id and state header, then a byte view of the counts themselves.  This
    is how a gateway answers every round close.  Joining them would copy
    the counts (131 KB at level 14) once per join, and a copy past
    glibc's mmap threshold can map or fault in fresh pages: a gateway
    that copied them four times took 128 minor faults per round.
    """
    head, counts = _split_shard_state(state)
    prefix = _U32.pack(round_id) + head
    frame_header = _HEADER.pack(len(prefix) + counts.nbytes, FRAME_SHARD_STATE)
    return frame_header + prefix, memoryview(counts).cast("B")


def decode_shard_state_frame(body: bytes) -> tuple[int, ExportedShardState]:
    """``(round_id, state)`` of a shard-state frame body."""
    if len(body) < _U32.size:
        raise FrameError("shard-state frame body misses its round id")
    (round_id,) = _U32.unpack_from(body)
    return int(round_id), decode_shard_state(body[_U32.size :])


# --------------------------------------------------------------------------- #
# Telemetry frames (canonical-JSON metrics documents)
# --------------------------------------------------------------------------- #
def encode_metrics_frame(document: dict) -> bytes:
    """Body of a ``FRAME_STATS``: one canonical-JSON metrics document."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_metrics_frame(body: bytes) -> dict:
    """Parse a metrics document; anything but a JSON mapping is a frame error."""
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"metrics body does not parse: {exc}") from exc
    if not isinstance(document, dict):
        raise FrameError(
            f"metrics body must be a JSON object, got {type(document).__name__}"
        )
    return document
