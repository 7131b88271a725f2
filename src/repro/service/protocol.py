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
    broadcast:     b"RBC2" | header_len u32 | canonical JSON header |
                   packed prefix bits

where strings are u16-length-prefixed UTF-8 and the payload format is
per-oracle (registered in :data:`REPORT_CODECS`):

* unary oracles (OUE, SUE) — the bit matrix packed to ``ceil(d/8)`` bytes
  per user (:func:`numpy.packbits`), i.e. the paper's ``d`` bits per report;
* k-RR — one reported index per user in the smallest unsigned dtype that
  indexes the candidate domain;
* OLH — one 64-bit hash seed plus one bucket index per user, the bucket in
  the smallest unsigned dtype that indexes the hashed domain ``d'``.

A broadcast's prefixes all share one length ``L`` (a
:class:`~repro.trie.candidate_domain.CandidateDomain` enforces it), so its
body is the header ``{party, level, oracle, epsilon, domain_size, n, L}``
followed by the ``n·L`` prefix bits, concatenated in candidate order and
packed with :func:`numpy.packbits` into ``ceil(n·L/8)`` bytes (zero pad
bits).  The header alone fixes the encoded size
(:func:`broadcast_wire_bits`), so a server accounts a broadcast without
encoding it, and a gateway opens a round from :func:`split_broadcast`
without building a single prefix string.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ldp.packed import PackedUnaryReports

_REPORT_MAGIC = b"RPB1"
_BROADCAST_MAGIC = b"RBC2"
_ZERO, _SEPARATOR = ord("0"), ord(",")


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


@dataclass(frozen=True)
class BroadcastHeader:
    """Everything a round broadcast carries except its prefix bits.

    ``n_prefixes`` prefixes of ``prefix_length`` bits each follow the
    header on the wire, packed into :attr:`packed_size` bytes.
    """

    party: str
    level: int
    oracle_name: str
    epsilon: float
    domain_size: int
    n_prefixes: int
    prefix_length: int

    @property
    def packed_size(self) -> int:
        """Bytes of the packed ``n·L`` prefix bits."""
        return (self.n_prefixes * self.prefix_length + 7) // 8


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
    return str(buffer[offset : offset + length], "utf-8"), offset + length


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
    if not isinstance(reports, PackedUnaryReports):
        raise WireFormatError(
            f"unary batch must be PackedUnaryReports, got {type(reports).__name__}"
        )
    if (reports.n_users, reports.domain_size) != (batch.n_users, batch.domain_size):
        raise WireFormatError(
            f"packed unary batch covers ({reports.n_users}, "
            f"{reports.domain_size}), expected "
            f"({batch.n_users}, {batch.domain_size})"
        )
    # Already in wire form: the payload is the packed buffer itself.
    return reports.tobytes()


def _decode_unary_reports(data, batch_meta: "ReportBatch") -> PackedUnaryReports:
    row_bytes = (batch_meta.domain_size + 7) // 8
    expected = batch_meta.n_users * row_bytes
    if len(data) != expected:
        raise WireFormatError(
            f"unary payload is {len(data)} bytes, expected {expected}"
        )
    # Zero-copy: the reports alias the payload bytes; the (n, d) matrix is
    # only ever materialised by an explicit ``.unpack()``.
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


#: oracle name → (payload encoder, payload decoder); unary encodings share
#: a codec.
REPORT_CODECS: dict[str, tuple[Callable, Callable]] = {
    "krr": (_encode_index_reports, _decode_index_reports),
    "oue": (_encode_unary_reports, _decode_unary_reports),
    "sue": (_encode_unary_reports, _decode_unary_reports),
    "olh": (_encode_olh_reports, _decode_olh_reports),
}


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
def _encode_broadcast_header(header: BroadcastHeader) -> bytes:
    return json.dumps(
        {
            "party": header.party,
            "level": header.level,
            "oracle": header.oracle_name,
            "epsilon": header.epsilon,
            "domain_size": header.domain_size,
            "n": header.n_prefixes,
            "L": header.prefix_length,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _check_prefix_count(n: int, length: int) -> None:
    # Distinct L-bit prefixes number at most 2**L.  Compared through
    # bit_length, so a header declaring a huge L costs no huge integer;
    # with L = 0 a broadcast carries at most the one empty prefix.
    if n > 0 and (n - 1).bit_length() > length:
        raise WireFormatError(
            f"broadcast declares {n} prefixes of {length} bits "
            f"(at most 2**{length} exist)"
        )


def broadcast_wire_bits(header: BroadcastHeader) -> int:
    """Exact size in bits of the broadcast with ``header``, never encoded.

    Equals ``wire_bits(encode_broadcast(b))`` for every broadcast ``b``
    with this header: magic, length prefix, canonical header, packed bits.
    """
    header_size = len(_encode_broadcast_header(header))
    return 8 * (len(_BROADCAST_MAGIC) + 4 + header_size + header.packed_size)


def encode_broadcast(broadcast: RoundBroadcast) -> bytes:
    """Serialise a round-opening broadcast: header plus packed prefix bits.

    Every prefix must be a string of ``0``/``1`` of one common length;
    anything else raises :class:`WireFormatError`.
    """
    prefixes = broadcast.prefixes
    n = len(prefixes)
    if n and not isinstance(prefixes[0], str):
        raise WireFormatError("broadcast prefixes must be 0/1 strings")
    length = len(prefixes[0]) if n else 0
    _check_prefix_count(n, length)
    header = BroadcastHeader(
        party=broadcast.party,
        level=int(broadcast.level),
        oracle_name=broadcast.oracle_name,
        epsilon=float(broadcast.epsilon),
        domain_size=int(broadcast.domain_size),
        n_prefixes=n,
        prefix_length=length,
    )
    head = _encode_broadcast_header(header)
    packed = b""
    if n:
        # One separator after every prefix: the text is n rows of L + 1
        # bytes exactly when every prefix has L characters, so a single
        # reshape checks all lengths (no per-prefix Python pass).
        try:
            text = ",".join([*prefixes, ""]).encode("ascii")
        except (TypeError, UnicodeEncodeError) as exc:
            raise WireFormatError(f"broadcast prefixes must be 0/1 strings: {exc}") from exc
        if len(text) != n * (length + 1):
            raise WireFormatError(
                f"broadcast prefixes must share one length ({length})"
            )
        rows = np.frombuffer(text, dtype=np.uint8).reshape(n, length + 1)
        if (rows[:, length] != _SEPARATOR).any():
            raise WireFormatError(
                f"broadcast prefixes must share one length ({length})"
            )
        # uint8 arithmetic wraps: anything but "0"/"1" lands above 1.
        bits = rows[:, :length] - np.uint8(_ZERO)
        if bits.size and bits.max() > 1:
            raise WireFormatError("broadcast prefixes must contain only 0 and 1")
        packed = np.packbits(bits).tobytes()
    return b"".join(
        (_BROADCAST_MAGIC, struct.pack("<I", len(head)), head, packed)
    )


def _header_int(body: dict, key: str, *, non_negative: bool = True) -> int:
    value = body[key]
    if type(value) is not int or (non_negative and value < 0):
        raise WireFormatError(f"broadcast {key} must be a non-negative integer")
    return value


def split_broadcast(data) -> tuple[BroadcastHeader, memoryview]:
    """Parse a broadcast's header; return it and a zero-copy view of the bits.

    Builds no prefix string.  The header must be the canonical encoding,
    declare at most ``2**L`` prefixes, and the packed bits must be exactly
    ``ceil(n·L/8)`` bytes with zero padding — so ``len(data) * 8`` is
    :func:`broadcast_wire_bits` of the header, and a small frame cannot
    declare a large domain.  :func:`decode_broadcast` builds on this.
    """
    if bytes(data[:4]) != _BROADCAST_MAGIC:
        raise WireFormatError(
            f"bad broadcast magic {bytes(data[:4])!r}, expected {_BROADCAST_MAGIC!r}"
        )
    view = memoryview(data)
    if len(view) < 8:
        raise WireFormatError(f"broadcast of {len(view)} bytes has no header length")
    (head_size,) = struct.unpack_from("<I", view, 4)
    head_end = 8 + head_size
    if head_end > len(view):
        raise WireFormatError(
            f"broadcast header of {head_size} bytes overruns the "
            f"{len(view)}-byte buffer"
        )
    head = bytes(view[8:head_end])
    try:
        body = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise WireFormatError(f"broadcast header does not parse: {exc}") from exc
    # The header came off a wire: any malformed shape (non-mapping,
    # missing keys, wrong value types) must surface as WireFormatError,
    # never as a raw KeyError/TypeError a server loop would treat as an
    # internal bug.
    if not isinstance(body, dict):
        raise WireFormatError("broadcast header must be a JSON object")
    try:
        party, oracle_name, epsilon = body["party"], body["oracle"], body["epsilon"]
        header = BroadcastHeader(
            party=party,
            level=_header_int(body, "level", non_negative=False),
            oracle_name=oracle_name,
            epsilon=epsilon,
            domain_size=_header_int(body, "domain_size"),
            n_prefixes=_header_int(body, "n"),
            prefix_length=_header_int(body, "L"),
        )
    except KeyError as exc:
        raise WireFormatError(f"broadcast header lacks {exc}") from None
    if not isinstance(party, str) or not isinstance(oracle_name, str):
        raise WireFormatError("broadcast party/oracle must be strings")
    if type(epsilon) is not float:
        raise WireFormatError("broadcast epsilon must be a float")
    if _encode_broadcast_header(header) != head:
        raise WireFormatError("broadcast header is not in canonical form")
    _check_prefix_count(header.n_prefixes, header.prefix_length)
    packed = view[head_end:]
    if len(packed) != header.packed_size:
        raise WireFormatError(
            f"broadcast carries {len(packed)} bytes of prefix bits, "
            f"{header.n_prefixes} prefixes of {header.prefix_length} bits "
            f"need {header.packed_size}"
        )
    pad = 8 * header.packed_size - header.n_prefixes * header.prefix_length
    if pad and packed[-1] & ((1 << pad) - 1):
        raise WireFormatError("broadcast pad bits must be zero")
    return header, packed


def decode_broadcast(data) -> RoundBroadcast:
    """Reconstruct a :class:`RoundBroadcast` (prefix strings included)."""
    header, packed = split_broadcast(data)
    n, length = header.n_prefixes, header.prefix_length
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n * length)
    text = (bits + np.uint8(_ZERO)).tobytes().decode("ascii")
    return RoundBroadcast(
        party=header.party,
        level=header.level,
        oracle_name=header.oracle_name,
        epsilon=header.epsilon,
        domain_size=header.domain_size,
        prefixes=tuple(text[i * length : (i + 1) * length] for i in range(n)),
    )


def wire_bits(payload: bytes) -> int:
    """Exact size of an encoded payload in bits."""
    return len(payload) * 8
