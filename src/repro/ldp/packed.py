"""Packed-bit unary report representation and its accumulation kernels.

The wire format of the unary oracles (OUE, SUE) has always been the
``numpy.packbits`` form of the ``(n_users, domain_size)`` bit matrix —
``ceil(d/8)`` bytes per user.  Historically the service *inflated* that
buffer back into the full boolean matrix before summing, an 8× blow-up
that made OUE ingestion memory-bound (and collapsed at large batch
sizes).  This module keeps reports **in the packed domain end to end**:

* :class:`PackedUnaryReports` — a read-only ``(n_users, row_bytes)``
  ``uint8`` view over the wire payload (zero-copy via
  :func:`numpy.frombuffer`), with the dense matrix available only as an
  explicit, lazy fallback (:meth:`PackedUnaryReports.unpack`);
* :func:`packed_column_counts` — per-candidate support counts straight
  off the packed bytes: ``np.unpackbits`` over blocks of at most 255
  rows (each row several reports long when the domain is narrow), each
  summed exactly in ``uint8`` and added into an int64 accumulator, so
  the scratch is one bounded block and the ``(n, d)`` matrix is never
  materialised;
* :func:`sample_unary_reports` — the shared perturbation sampler of the
  unary oracles.  Flipped bits are drawn sparsely (geometric gaps over
  the flattened ``n × d`` Bernoulli grid — the textbook inverse-CDF
  skip-sampling, exact in distribution), scattered into a byte-aligned
  boolean scratch one bounded chunk of rows at a time, and packed, so a
  unary report batch has one form, in memory and on the wire.

Correctness contract, pinned by ``tests/test_ldp_packed.py``: for every
packed buffer, ``packed_column_counts`` equals unpack-then-``sum`` bit for
bit, and for every seed and chunk size ``sample_unary_reports`` holds
exactly ``numpy.packbits`` of a plain ``(n, d)`` boolean scatter of the
same draws.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RandomState, as_generator

#: Scratch budget of :func:`packed_column_counts`: the most bytes (one
#: per bit) one block unpacks.  Kept under glibc's 128 KiB mmap threshold,
#: so every block's buffer is recycled from the heap instead of being a
#: fresh, page-faulting mapping (see the kernel's docstring).
_COUNT_BLOCK_BYTES = 120 << 10

#: Target length, in bits, of one lane row of :func:`packed_column_counts`:
#: reports are grouped until a row of the block is about this long.
_COUNT_LANE_BITS = 1 << 11

#: Scratch budget of :func:`sample_unary_reports`, in bits (one byte
#: each): a chunk holds as many whole ``8 * ceil(d/8)``-bit rows as fit,
#: and at least one.  The sampler never materialises more of the bit
#: matrix than one chunk.
_PACK_SCRATCH_MAX_BITS = 1 << 21

#: Cached ``arange(n) * width`` vectors keyed by ``(n, width)``: the
#: per-user row offsets of the sampler's scratch.  Batch and chunk shapes
#: repeat for a whole stream, so the cache hits on every chunk but the
#: ragged last ones.  Bounded: stale shapes are evicted once it fills.
_ROW_OFFSET_CACHE: dict[tuple[int, int], np.ndarray] = {}
_ROW_OFFSET_CACHE_MAX = 8


def _row_offsets(n: int, width: int) -> np.ndarray:
    offsets = _ROW_OFFSET_CACHE.get((n, width))
    if offsets is None:
        if len(_ROW_OFFSET_CACHE) >= _ROW_OFFSET_CACHE_MAX:
            _ROW_OFFSET_CACHE.clear()
        offsets = np.arange(n, dtype=np.int64) * width
        offsets.flags.writeable = False
        _ROW_OFFSET_CACHE[(n, width)] = offsets
    return offsets


def packed_row_bytes(domain_size: int) -> int:
    """Bytes one user's packed bit vector occupies: ``ceil(d / 8)``."""
    return (int(domain_size) + 7) // 8


class PackedUnaryReports:
    """A batch of unary (bit-vector) reports kept in packed wire form.

    Parameters
    ----------
    data:
        ``(n_users, row_bytes)`` ``uint8`` array in ``numpy.packbits``
        layout (big-endian bits, rows padded with zero bits to a byte
        boundary).  The array is frozen read-only on construction: every
        consumer shares the one buffer, so nobody may scribble on it.
    n_users / domain_size:
        Logical shape of the batch; ``row_bytes`` must equal
        ``ceil(domain_size / 8)``.
    """

    __slots__ = ("data", "n_users", "domain_size")

    def __init__(self, data: np.ndarray, *, n_users: int, domain_size: int):
        n_users = int(n_users)
        domain_size = int(domain_size)
        if n_users < 0 or domain_size < 1:
            raise ValueError(
                f"invalid packed shape: n_users={n_users}, domain_size={domain_size}"
            )
        row_bytes = packed_row_bytes(domain_size)
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (n_users, row_bytes):
            raise ValueError(
                f"packed buffer has shape {data.shape}, expected "
                f"({n_users}, {row_bytes}) for domain size {domain_size}"
            )
        data.flags.writeable = False
        self.data = data
        self.n_users = n_users
        self.domain_size = domain_size

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_buffer(cls, buffer, *, n_users: int, domain_size: int) -> "PackedUnaryReports":
        """Zero-copy view over a wire payload (bytes/memoryview).

        The returned reports alias ``buffer`` — no byte is copied between
        the socket and the accumulation kernel.  Raises ``ValueError`` when
        the buffer size does not match the declared shape.
        """
        row_bytes = packed_row_bytes(domain_size)
        flat = np.frombuffer(buffer, dtype=np.uint8)
        expected = int(n_users) * row_bytes
        if flat.size != expected:
            raise ValueError(
                f"packed payload is {flat.size} bytes, expected {expected}"
            )
        return cls(
            flat.reshape(int(n_users), row_bytes),
            n_users=n_users,
            domain_size=domain_size,
        )

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "PackedUnaryReports":
        """Pack a dense ``(n, d)`` boolean report matrix."""
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError(f"expected an (n, d) matrix, got shape {matrix.shape}")
        n, d = matrix.shape
        if d < 1:
            raise ValueError("domain_size must be at least 1")
        return cls(np.packbits(matrix, axis=1), n_users=n, domain_size=d)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Size of the packed buffer (the batch's true memory footprint)."""
        return int(self.data.nbytes)

    def tobytes(self) -> bytes:
        """The canonical wire payload of the batch."""
        return self.data.tobytes()

    def unpack(self) -> np.ndarray:
        """Materialise the dense ``(n_users, domain_size)`` boolean matrix.

        The explicit fallback (and the correctness reference for the
        packed kernels) — the hot path never calls this.
        """
        if self.n_users == 0:
            return np.zeros((0, self.domain_size), dtype=bool)
        matrix = np.unpackbits(self.data, axis=1)[:, : self.domain_size]
        return matrix.astype(bool)

    def column_counts(self) -> np.ndarray:
        """Per-candidate support counts via the packed kernel."""
        return packed_column_counts(self.data, self.domain_size)

    def __len__(self) -> int:
        return self.n_users

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedUnaryReports):
            return NotImplemented
        return (
            self.n_users == other.n_users
            and self.domain_size == other.domain_size
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedUnaryReports(n_users={self.n_users}, "
            f"domain_size={self.domain_size}, nbytes={self.nbytes})"
        )


def packed_column_counts(data: np.ndarray, domain_size: int) -> np.ndarray:
    """Column (candidate) support counts straight off packed bytes.

    A blocked unpack-and-sum.  A *lane row* is ``group`` consecutive
    reports, about ``_COUNT_LANE_BITS`` bits, and lane ``j`` holds column
    ``j % width`` (``width = 8 * row_bytes``).  Per block of at most 255
    lane rows and ``_COUNT_BLOCK_BYTES`` bytes, one ``np.unpackbits`` over
    the block's contiguous bytes gives a ``(rows, lanes)`` array of one
    byte per bit, and ``np.add.reduce(..., dtype=np.uint8)`` sums it into
    one reused ``uint8`` lane vector, which is exact: a lane of 255 rows
    holds at most 255 ones.  That vector is added into an int64
    accumulator; the reports after the last whole lane row are added
    into it bit by bit, and the accumulator folds to per-column counts at
    the end.

    Why lane rows: the reduction pays a fixed cost per row, so rows of a
    few hundred bytes (one 257-column report) or eight (one 7-column
    report) spend most of it there.  Grouped into ~2 KiB rows, every
    width runs the same long rows.  Why the budget: in a gateway process
    a block buffer of 128 KiB or more is a fresh ``mmap`` per block, and
    its page faults cost more than the unpacking.  With 2^19-byte blocks
    a gateway fed pre-encoded 4096 × 257 batches took 223 minor faults
    and about 1,010 µs of CPU per batch; with 120 KiB blocks, 6 faults
    and 439–469 µs (the old kernel: 959–1,082 µs).

    Per call against the byte-value ``np.bincount`` + 256×8 table kernel
    it replaced (2-core Xeon VM, NumPy 2.4; medians of two runs of seven
    repeats, outputs equal with ``==``), reports × columns:

    ===========================  ==============  ==============
    shape                        table kernel    this kernel
    ===========================  ==============  ==============
    4096 × 257 (perfbench)       519–538 µs      231–246 µs
    1000 × 16,385                27.0–27.6 ms    4.6–5.3 ms
    453 × 11,466                 11.7–13.9 ms    1.2–1.4 ms
    4096 × 65                    141–143 µs      65 µs
    11,465 × 73 (OUE TAPS)       368–412 µs      161–193 µs
    11,466 × 33 (OUE TAPS)       198–267 µs      77–113 µs
    8,599 × 7 (OUE TAPS)         27–36 µs        26–35 µs
    ===========================  ==============  ==============

    The last three are the largest unary shapes of an OUE TAPS discovery
    on the ``rdb`` dataset at ``scale="large"``.  With one report per
    lane row and 255-row blocks, the narrow ones were slower than the
    table kernel (8,599 × 7 about 450 µs, 11,466 × 33 about 670 µs).
    Lane rows of 1, 4 and 8 Kibit measured no faster than 2 Kibit on
    these shapes.  A uint32 accumulator measured no faster than int64,
    which needs no final cast.

    Bit-identical to ``unpack-then-sum``: padding bits beyond
    ``domain_size`` land in columns the final slice drops, exactly like
    the dense path's ``[:, :domain_size]``.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.ndim != 2:
        raise ValueError(f"expected an (n, row_bytes) byte array, got {data.shape}")
    domain_size = int(domain_size)
    n, row_bytes = data.shape
    if row_bytes != packed_row_bytes(domain_size):
        raise ValueError(
            f"row width {row_bytes} does not match domain size {domain_size}"
        )
    width = row_bytes * 8
    group = max(1, _COUNT_LANE_BITS // width)
    lanes = group * width
    step = max(1, min(255, _COUNT_BLOCK_BYTES // lanes))
    stride = group * row_bytes  # packed bytes per lane row
    full = n // group
    flat = data.reshape(-1)
    counts = np.zeros(lanes, dtype=np.int64)
    part = np.empty(lanes, dtype=np.uint8)
    for lo in range(0, full, step):
        k = min(step, full - lo)
        bits = np.unpackbits(flat[lo * stride : (lo + k) * stride])
        np.add.reduce(bits.reshape(k, lanes), axis=0, dtype=np.uint8, out=part)
        counts += part
    tail = np.unpackbits(flat[full * stride :])
    counts[: tail.size] += tail
    return counts.reshape(group, width).sum(axis=0)[:domain_size]


# --------------------------------------------------------------------------- #
# Sparse unary perturbation
# --------------------------------------------------------------------------- #
def _bernoulli_positions(gen: np.random.Generator, total: int, q: float) -> np.ndarray:
    """Sorted positions of i.i.d. ``Bernoulli(q)`` successes in ``[0, total)``.

    Inverse-CDF geometric skip sampling: gaps between successes are drawn
    as ``floor(log(1-U) / log(1-q)) + 1``, which is exact for the
    geometric law, so the returned position *set* has exactly the
    distribution of thresholding ``total`` uniforms — while consuming
    ``~ total·q`` draws instead of ``total``.
    """
    if total <= 0 or q <= 0.0:
        return np.empty(0, dtype=np.int64)
    if q >= 1.0:
        return np.arange(total, dtype=np.int64)
    inv_log = 1.0 / np.log1p(-q)
    mean = total * q
    # One draw block almost always suffices (6σ headroom); the rare
    # shortfall tops up in smaller blocks, continuing the same stream.
    n_draw = int(mean + 6.0 * np.sqrt(mean + 1.0)) + 16
    chunks = []
    last = -1
    while last < total:
        u = gen.random(n_draw)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u *= inv_log
        gaps = u.astype(np.int64)
        gaps += 1
        positions = np.cumsum(gaps)
        positions += last
        chunks.append(positions)
        last = int(positions[-1])
        n_draw = max(16, n_draw // 4)
    positions = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return positions[: int(np.searchsorted(positions, total))]


def sample_unary_reports(
    values: np.ndarray,
    domain_size: int,
    rng: RandomState,
    p: float,
    q: float,
) -> PackedUnaryReports:
    """Sample one perturbed unary report per user, in packed form.

    Every bit starts as ``Bernoulli(q)`` (drawn sparsely, see
    :func:`_bernoulli_positions`); each user's true-value bit is then
    overwritten with ``Bernoulli(p)``.  The generator is consumed up front
    — all flip positions, then the ``n`` keep draws — and only the scatter
    is chunked, so the bits depend on the seed alone, never on the chunk
    size.

    The scatter writes each chunk of whole rows into a boolean scratch of
    at most ``_PACK_SCRATCH_MAX_BITS`` bytes, one per bit, whose rows are
    ``8 * ceil(d/8)`` bits wide: each row's zero padding then packs into
    its last byte, and one flat ``np.packbits`` per chunk costs a fraction
    of a row-wise one (8,599 × 7 on a 2-core VM, NumPy 2.4: about 7 µs
    against 290 µs).

    Raises ``ValueError`` when a value lies outside ``[0, domain_size)``:
    its keep bit would land in another user's row.
    """
    gen = as_generator(rng)
    values = np.asarray(values, dtype=np.int64)
    n = int(values.size)
    d = int(domain_size)
    if n and (values.min() < 0 or values.max() >= d):
        raise ValueError("values must be candidate indices within the domain")
    positions = _bernoulli_positions(gen, n * d, q)
    keep_true = gen.random(n) < p

    row_bytes = packed_row_bytes(d)
    width = 8 * row_bytes
    if positions.size and width != d:
        # Shift each flip into its row of the byte-aligned layout.
        positions = positions + (positions // d) * (width - d)
    rows = max(1, _PACK_SCRATCH_MAX_BITS // width)
    packed = []
    lo = 0
    # One empty chunk when n == 0, so the batch packs to zero bytes.
    for r0 in range(0, max(n, 1), rows):
        r1 = min(n, r0 + rows)
        hi = positions.size
        if r1 < n:
            hi = lo + int(np.searchsorted(positions[lo:], r1 * width))
        chunk = positions[lo:hi]
        if r0:
            chunk -= r0 * width  # in place: ``positions`` is this call's own
        scratch = np.zeros((r1 - r0) * width, dtype=bool)
        scratch[chunk] = True
        scratch[_row_offsets(r1 - r0, width) + values[r0:r1]] = keep_true[r0:r1]
        packed.append(np.packbits(scratch))
        lo = hi
    data = packed[0] if len(packed) == 1 else np.concatenate(packed)
    return PackedUnaryReports(data.reshape(n, row_bytes), n_users=n, domain_size=d)
