"""Wire codecs for the online aggregation service.

The batch simulations account communication analytically (``report_bits``,
``pair_bits``); the service instead puts every report batch and every round
broadcast through a real byte codec and feeds the **exact** byte counts into
the :class:`~repro.federation.transcript.FederationTranscript`.  Encoding is
canonical — the same batch always produces the same bytes — and decoding is
lossless, so a round ingested from the wire finalises bit-identically to the
in-memory computation.

Layout (little-endian throughout)::

    report batch:  b"RPB1" | oracle | party | level u32 | domain u32 |
                   value_domain u32 | n_users u32 | epsilon f64 | payload
    broadcast:     b"RBC1" | canonical JSON body

where strings are u16-length-prefixed UTF-8 and the payload format is
per-oracle (registered in :data:`REPORT_CODECS`):

* unary oracles (OUE, SUE) — the bit matrix packed to ``ceil(d/8)`` bytes
  per user (:func:`numpy.packbits`), i.e. the paper's ``d`` bits per report;
* k-RR — one reported index per user in the smallest unsigned dtype that
  indexes the candidate domain;
* OLH — one 64-bit hash seed plus one bucket index per user, the bucket in
  the smallest unsigned dtype that indexes the hashed domain ``d'``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ldp.packed import PackedUnaryReports

_REPORT_MAGIC = b"RPB1"
_BROADCAST_MAGIC = b"RBC1"


class WireFormatError(ValueError):
    """A payload does not decode under the service wire protocol."""


@dataclass(frozen=True)
class ReportBatch:
    """One bounded batch of privatized reports from a client pool.

    Attributes
    ----------
    party:
        Name of the party (client pool) that produced the batch.
    level:
        Prefix length of the trie round the batch belongs to.
    oracle_name / epsilon:
        The frequency oracle that perturbed the reports and its budget.
    domain_size:
        Size of the candidate domain (dummy included) the round runs over.
    value_domain:
        Size of the per-report value domain on the wire
        (:meth:`repro.ldp.base.FrequencyOracle.report_value_domain`).
    n_users:
        Number of reports in the batch.
    reports:
        Oracle-specific report representation (see :mod:`repro.ldp`).
    """

    party: str
    level: int
    oracle_name: str
    epsilon: float
    domain_size: int
    value_domain: int
    n_users: int
    reports: object


@dataclass(frozen=True)
class RoundBroadcast:
    """The server → clients announcement opening one aggregation round."""

    party: str
    level: int
    oracle_name: str
    epsilon: float
    domain_size: int
    prefixes: tuple[str, ...]


# ---------------------------------------------------------------------- #
# Primitives
# ---------------------------------------------------------------------- #
def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise WireFormatError(f"string of {len(data)} bytes exceeds the u16 prefix")
    return struct.pack("<H", len(data)) + data


def _unpack_str(buffer: bytes, offset: int) -> tuple[str, int]:
    (length,) = struct.unpack_from("<H", buffer, offset)
    offset += 2
    if offset + length > len(buffer):
        # Without this check a truncated buffer would yield a silently
        # shortened string instead of failing — bytes off a socket must
        # never mis-decode.
        raise WireFormatError(
            f"string of {length} bytes overruns the {len(buffer)}-byte buffer"
        )
    return buffer[offset : offset + length].decode("utf-8"), offset + length


def _uint_dtype(max_value: int) -> np.dtype:
    """Smallest little-endian unsigned dtype representing ``max_value``."""
    for code in ("<u1", "<u2", "<u4", "<u8"):
        if max_value < 1 << (8 * np.dtype(code).itemsize):
            return np.dtype(code)
    raise WireFormatError(f"value {max_value} exceeds 64 bits")  # pragma: no cover


def _readonly_view(buffer, dtype: np.dtype) -> np.ndarray:
    """A zero-copy, read-only array over ``buffer`` (bytes or memoryview).

    The columnar contract of every decoder below: wire bytes are *viewed*,
    never copied, and the view is frozen so downstream kernels cannot
    scribble on a buffer other consumers (accounting, re-encoding) alias.
    """
    array = np.frombuffer(buffer, dtype=dtype)
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------- #
# Per-oracle report payload codecs
# ---------------------------------------------------------------------- #
def _encode_index_reports(batch: ReportBatch) -> bytes:
    reports = np.asarray(batch.reports, dtype=np.int64)
    return reports.astype(_uint_dtype(batch.value_domain - 1)).tobytes()


def _decode_index_reports(data, batch_meta: "ReportBatch") -> np.ndarray:
    dtype = _uint_dtype(batch_meta.value_domain - 1)
    expected = batch_meta.n_users * dtype.itemsize
    if len(data) != expected:
        raise WireFormatError(
            f"index payload is {len(data)} bytes, expected {expected}"
        )
    # Read-only view in the wire dtype; consumers (bincount) take the
    # smallest-uint form as-is, so no widening copy is ever made.
    return _readonly_view(data, dtype)


def _encode_unary_reports(batch: ReportBatch) -> bytes:
    reports = batch.reports
    if isinstance(reports, PackedUnaryReports):
        # Already in wire form: the payload is the packed buffer itself.
        if (reports.n_users, reports.domain_size) != (
            batch.n_users,
            batch.domain_size,
        ):
            raise WireFormatError(
                f"packed unary batch covers ({reports.n_users}, "
                f"{reports.domain_size}), expected "
                f"({batch.n_users}, {batch.domain_size})"
            )
        return reports.tobytes()
    matrix = np.asarray(reports, dtype=bool)
    if matrix.ndim != 2 or matrix.shape != (batch.n_users, batch.domain_size):
        raise WireFormatError(
            f"unary batch has shape {matrix.shape}, expected "
            f"({batch.n_users}, {batch.domain_size})"
        )
    return np.packbits(matrix, axis=1).tobytes()


def _decode_unary_reports(data, batch_meta: "ReportBatch") -> PackedUnaryReports:
    row_bytes = (batch_meta.domain_size + 7) // 8
    expected = batch_meta.n_users * row_bytes
    if len(data) != expected:
        raise WireFormatError(
            f"unary payload is {len(data)} bytes, expected {expected}"
        )
    # Zero-copy: the reports alias the payload bytes; the (n, d) matrix is
    # only ever materialised by an explicit ``.unpack()`` fallback.
    return PackedUnaryReports.from_buffer(
        data, n_users=batch_meta.n_users, domain_size=batch_meta.domain_size
    )


def _encode_olh_reports(batch: ReportBatch) -> bytes:
    seeds, buckets = batch.reports
    seeds = np.asarray(seeds, dtype="<i8")
    buckets = np.asarray(buckets)
    bucket_dtype = _uint_dtype(batch.value_domain - 1)
    if buckets.dtype != bucket_dtype:
        buckets = buckets.astype(bucket_dtype)
    return seeds.tobytes() + buckets.tobytes()


def _decode_olh_reports(
    data, batch_meta: "ReportBatch"
) -> tuple[np.ndarray, np.ndarray]:
    n = batch_meta.n_users
    bucket_dtype = _uint_dtype(batch_meta.value_domain - 1)
    expected = n * (8 + bucket_dtype.itemsize)
    if len(data) != expected:
        raise WireFormatError(f"OLH payload is {len(data)} bytes, expected {expected}")
    view = memoryview(data)
    # Read-only views straight over the payload: the seed view is already
    # native int64 on little-endian hosts and the bucket view stays in its
    # wire dtype — the decode kernel consumes both without copies.
    seeds = _readonly_view(view[: 8 * n], np.dtype("<i8"))
    if seeds.dtype != np.dtype(np.int64):  # pragma: no cover - big-endian only
        seeds = seeds.astype(np.int64)
    buckets = _readonly_view(view[8 * n :], bucket_dtype)
    return seeds, buckets


#: oracle name → (payload encoder, payload decoder).  New oracles register
#: here (see :func:`register_report_codec`); unary encodings share a codec.
REPORT_CODECS: dict[str, tuple[Callable, Callable]] = {
    "krr": (_encode_index_reports, _decode_index_reports),
    "oue": (_encode_unary_reports, _decode_unary_reports),
    "sue": (_encode_unary_reports, _decode_unary_reports),
    "olh": (_encode_olh_reports, _decode_olh_reports),
}


def register_report_codec(
    oracle_name: str, encoder: Callable, decoder: Callable
) -> None:
    """Register the wire codec of a new frequency oracle's reports."""
    REPORT_CODECS[oracle_name.lower()] = (encoder, decoder)


def _codec(oracle_name: str) -> tuple[Callable, Callable]:
    try:
        return REPORT_CODECS[oracle_name.lower()]
    except KeyError:
        raise WireFormatError(
            f"no wire codec registered for oracle {oracle_name!r}; "
            f"available: {sorted(REPORT_CODECS)}"
        ) from None


# ---------------------------------------------------------------------- #
# Report batches
# ---------------------------------------------------------------------- #
def encode_report_batch(batch: ReportBatch) -> bytes:
    """Serialise a report batch to its canonical wire bytes."""
    encoder, _ = _codec(batch.oracle_name)
    header = b"".join(
        (
            _REPORT_MAGIC,
            _pack_str(batch.oracle_name),
            _pack_str(batch.party),
            struct.pack(
                "<IIIId",
                batch.level,
                batch.domain_size,
                batch.value_domain,
                batch.n_users,
                batch.epsilon,
            ),
        )
    )
    return header + encoder(batch)


def split_report_batch(data: bytes) -> tuple[ReportBatch, memoryview]:
    """Parse a batch header; return its meta and a zero-copy payload view.

    The returned :class:`ReportBatch` carries every header field with
    ``reports=None``, and the memoryview aliases the payload bytes without
    copying them.  :func:`decode_report_batch` builds on this.
    """
    if data[:4] != _REPORT_MAGIC:
        raise WireFormatError(
            f"bad report-batch magic {data[:4]!r}, expected {_REPORT_MAGIC!r}"
        )
    try:
        offset = 4
        oracle_name, offset = _unpack_str(data, offset)
        party, offset = _unpack_str(data, offset)
        level, domain_size, value_domain, n_users, epsilon = struct.unpack_from(
            "<IIIId", data, offset
        )
        offset += struct.calcsize("<IIIId")
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireFormatError(f"report-batch header does not parse: {exc}") from exc
    meta = ReportBatch(
        party=party,
        level=int(level),
        oracle_name=oracle_name,
        epsilon=float(epsilon),
        domain_size=int(domain_size),
        value_domain=int(value_domain),
        n_users=int(n_users),
        reports=None,
    )
    # A codec must exist even when the caller only wants the meta — an
    # unknown oracle is a wire error, wherever it is detected.
    _codec(oracle_name)
    return meta, memoryview(data)[offset:]


def decode_report_batch(data: bytes) -> ReportBatch:
    """Reconstruct a :class:`ReportBatch` from wire bytes, losslessly.

    Report payloads decode into zero-copy, read-only views over ``data``
    (packed unary buffers stay packed); no byte is duplicated between the
    wire and the accumulation kernels.
    """
    meta, payload = split_report_batch(data)
    _, decoder = _codec(meta.oracle_name)
    reports = decoder(payload, meta)
    return ReportBatch(
        party=meta.party,
        level=meta.level,
        oracle_name=meta.oracle_name,
        epsilon=meta.epsilon,
        domain_size=meta.domain_size,
        value_domain=meta.value_domain,
        n_users=meta.n_users,
        reports=reports,
    )


# ---------------------------------------------------------------------- #
# Round broadcasts
# ---------------------------------------------------------------------- #
def encode_broadcast(broadcast: RoundBroadcast) -> bytes:
    """Serialise a round-opening broadcast (canonical JSON body)."""
    body = json.dumps(
        {
            "party": broadcast.party,
            "level": broadcast.level,
            "oracle": broadcast.oracle_name,
            "epsilon": broadcast.epsilon,
            "domain_size": broadcast.domain_size,
            "prefixes": list(broadcast.prefixes),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return _BROADCAST_MAGIC + body


def decode_broadcast(data: bytes) -> RoundBroadcast:
    """Reconstruct a :class:`RoundBroadcast` from wire bytes."""
    if data[:4] != _BROADCAST_MAGIC:
        raise WireFormatError(
            f"bad broadcast magic {data[:4]!r}, expected {_BROADCAST_MAGIC!r}"
        )
    try:
        body = json.loads(data[4:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"broadcast body does not parse: {exc}") from exc
    # The body came off a wire: any malformed shape (non-mapping, missing
    # keys, wrong value types) must surface as WireFormatError, never as a
    # raw KeyError/TypeError a server loop would treat as an internal bug.
    try:
        if not isinstance(body["prefixes"], list):
            # tuple() would happily split a JSON *string* into characters —
            # a silent mis-decode, the one failure mode worse than an error.
            raise WireFormatError(
                f"broadcast prefixes must be a list, "
                f"got {type(body['prefixes']).__name__}"
            )
        broadcast = RoundBroadcast(
            party=body["party"],
            level=int(body["level"]),
            oracle_name=body["oracle"],
            epsilon=float(body["epsilon"]),
            domain_size=int(body["domain_size"]),
            prefixes=tuple(body["prefixes"]),
        )
    except WireFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"broadcast body is malformed: {exc!r}") from exc
    if not isinstance(broadcast.party, str) or not isinstance(
        broadcast.oracle_name, str
    ):
        raise WireFormatError("broadcast party/oracle must be strings")
    if not all(isinstance(p, str) for p in broadcast.prefixes):
        raise WireFormatError("broadcast prefixes must be strings")
    return broadcast


def wire_bits(payload: bytes) -> int:
    """Exact size of an encoded payload in bits."""
    return len(payload) * 8
