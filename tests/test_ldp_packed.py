"""Fuzz/property tests of the packed-bit unary report kernels.

The columnar hot path rests on two bit-identity contracts
(:mod:`repro.ldp.packed`):

* ``packed_column_counts`` equals unpack-then-``sum`` for every buffer,
* ``sample_unary_reports(packed=True)`` equals ``numpy.packbits`` of the
  dense sample for every seed — on both scatter strategies (boolean
  scratch for small batches, run-length packed scatter for large ones).

These tests hammer the awkward shapes (domains narrower than a byte, not
byte-aligned, single users, empty batches) and the codec's rejection of
malformed packed payloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldp import make_oracle
from repro.ldp.packed import (
    PackedUnaryReports,
    _bernoulli_positions,
    _PACK_SCRATCH_MAX_BITS,
    packed_column_counts,
    packed_row_bytes,
    sample_unary_reports,
)
from repro.service.protocol import (
    ReportBatch,
    WireFormatError,
    decode_report_batch,
    encode_report_batch,
)

UNARY_ORACLES = ("oue", "sue")


def _random_packed(rng, n, d):
    data = rng.integers(0, 256, size=(n, packed_row_bytes(d)), dtype=np.uint8)
    return PackedUnaryReports(data, n_users=n, domain_size=d)


# --------------------------------------------------------------------------- #
# Kernel ≡ unpack-then-sum
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 16, 63, 64, 65, 200])
@pytest.mark.parametrize("n", [0, 1, 5, 257])
def test_column_counts_equal_unpack_sum(d, n):
    reports = _random_packed(np.random.default_rng(d * 1000 + n), n, d)
    expected = reports.unpack().sum(axis=0).astype(np.int64)
    np.testing.assert_array_equal(reports.column_counts(), expected)


def _patch_kernel(monkeypatch, lane_bits: int, block_bytes: int) -> None:
    import repro.ldp.packed as packed_mod

    monkeypatch.setattr(packed_mod, "_COUNT_LANE_BITS", lane_bits)
    monkeypatch.setattr(packed_mod, "_COUNT_BLOCK_BYTES", block_bytes)


def test_column_counts_blocked_kernel_spans_blocks(monkeypatch):
    """Counts are identical when the kernel needs many blocks."""
    reports = _random_packed(np.random.default_rng(7), 1000, 37)
    whole = reports.column_counts()
    # One report per block: 1000 blocks.
    _patch_kernel(monkeypatch, lane_bits=40, block_bytes=64)
    np.testing.assert_array_equal(reports.column_counts(), whole)
    # Three-report lane rows: two blocks (255 + 78 lane rows) and a
    # one-report tail.
    _patch_kernel(monkeypatch, lane_bits=120, block_bytes=255 * 120)
    np.testing.assert_array_equal(reports.column_counts(), whole)
    np.testing.assert_array_equal(
        whole, reports.unpack().sum(axis=0).astype(np.int64)
    )


def _edge_kernels(width: int):
    """(lane bits, block bytes) that put the uint8 limit at the edge rows."""
    import repro.ldp.packed as packed_mod

    return [
        (packed_mod._COUNT_LANE_BITS, packed_mod._COUNT_BLOCK_BYTES),
        # One report per lane row and a budget that only the 255-row
        # clamp bounds: exactly 255 rows per block.
        (width, 1 << 30),
        # Two reports per lane row, 255 lane rows (510 reports) per block.
        (2 * width, 1 << 30),
    ]


@pytest.mark.parametrize("fill", ["random", "ones"])
@pytest.mark.parametrize("d", [1, 7, 65, 257, 16385])
@pytest.mark.parametrize("n", [0, 1, 254, 255, 256, 4096])
def test_column_counts_overflow_edge(monkeypatch, n, d, fill):
    """``==`` to unpack-then-sum at the uint8 block limit, padding bits set.

    An all-ones buffer puts 255 ones in every lane of a full block, the
    most a ``uint8`` partial sum holds; random bytes never get there.
    """
    row_bytes = packed_row_bytes(d)
    if fill == "ones":
        data = np.full((n, row_bytes), 0xFF, dtype=np.uint8)
    else:
        data = np.random.default_rng(n * 7 + d).integers(
            0, 256, size=(n, row_bytes), dtype=np.uint8
        )
        # Set every padding bit of each row's last byte.
        data[:, -1] |= np.uint8((1 << (row_bytes * 8 - d)) - 1)
    reports = PackedUnaryReports(data, n_users=n, domain_size=d)
    expected = reports.unpack().sum(axis=0).astype(np.int64)
    if fill == "ones":
        assert (expected == n).all()
    for lane_bits, block_bytes in _edge_kernels(row_bytes * 8):
        _patch_kernel(monkeypatch, lane_bits, block_bytes)
        counts = packed_column_counts(data, d)
        assert counts.dtype == np.int64
        assert (counts == expected).all()


@given(
    n=st.integers(min_value=0, max_value=2000),
    d=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
    ones=st.booleans(),
    kernel=st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=1, max_value=4096),
            st.integers(min_value=1, max_value=1 << 16),
        ),
    ),
)
@settings(max_examples=60, deadline=None)
def test_column_counts_fuzz(n, d, seed, ones, kernel):
    """Random shapes, lane rows and block budgets, so that batches cross
    block boundaries (at the defaults a 300-column block is 402 reports)."""
    from unittest import mock

    import repro.ldp.packed as packed_mod

    reports = _random_packed(np.random.default_rng(seed), n, d)
    if ones:
        reports = PackedUnaryReports(
            np.full_like(reports.data, 0xFF), n_users=n, domain_size=d
        )
    expected = reports.unpack().sum(axis=0).astype(np.int64)
    lane_bits, block_bytes = kernel or (
        packed_mod._COUNT_LANE_BITS,
        packed_mod._COUNT_BLOCK_BYTES,
    )
    with mock.patch.multiple(
        packed_mod, _COUNT_LANE_BITS=lane_bits, _COUNT_BLOCK_BYTES=block_bytes
    ):
        np.testing.assert_array_equal(reports.column_counts(), expected)


# --------------------------------------------------------------------------- #
# Sampler parity: dense ≡ packed, on both scatter strategies
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("d", [1, 7, 8, 9, 65])
@pytest.mark.parametrize("n", [0, 1, 129])
@pytest.mark.parametrize("oracle_name", UNARY_ORACLES)
def test_sample_parity_dense_vs_packed(oracle_name, n, d):
    oracle = make_oracle(oracle_name, epsilon=1.5)
    values = np.random.default_rng(n + d).integers(0, d, size=n)
    dense = oracle.perturb(values, d, rng=42)
    packed = oracle.perturb_packed(values, d, rng=42)
    assert isinstance(packed, PackedUnaryReports)
    np.testing.assert_array_equal(packed.unpack(), dense)


def test_sample_parity_on_sparse_scatter_path(monkeypatch):
    """Force the run-length packed scatter (large-batch path) and re-check."""
    import repro.ldp.packed as packed_mod

    values = np.random.default_rng(0).integers(0, 65, size=400)
    dense = sample_unary_reports(values, 65, np.random.default_rng(9), 0.6, 0.05)
    monkeypatch.setattr(packed_mod, "_PACK_SCRATCH_MAX_BITS", 0)
    packed = sample_unary_reports(
        values, 65, np.random.default_rng(9), 0.6, 0.05, packed=True
    )
    np.testing.assert_array_equal(np.packbits(dense, axis=1), packed.data)


def test_default_threshold_covers_both_paths():
    # The shipped threshold actually splits real batch shapes across the
    # two scatter strategies (the whole point of having two).
    assert 2048 * 65 <= _PACK_SCRATCH_MAX_BITS < 65536 * 65


@given(
    n=st.integers(min_value=0, max_value=40),
    d=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    epsilon=st.floats(min_value=0.2, max_value=6.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_sample_parity_fuzz(n, d, seed, epsilon):
    oracle = make_oracle("oue", epsilon=epsilon)
    values = np.random.default_rng(seed).integers(0, d, size=n)
    dense = oracle.perturb(values, d, rng=seed)
    packed = oracle.perturb_packed(values, d, rng=seed)
    np.testing.assert_array_equal(packed.unpack(), dense)


# --------------------------------------------------------------------------- #
# accumulate_packed ≡ the dense fallback, for every unary oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("oracle_name", UNARY_ORACLES)
def test_accumulate_packed_matches_dense_accumulate(oracle_name):
    oracle = make_oracle(oracle_name, epsilon=2.0)
    d = 21
    counts = np.arange(d, dtype=np.int64)
    reports = _random_packed(np.random.default_rng(3), 50, d)
    via_packed = oracle.accumulate_packed(counts, reports, d)
    via_dense = oracle.accumulate(counts, reports.unpack(), d)
    np.testing.assert_array_equal(via_packed, via_dense)
    # The accumulator argument itself is never mutated.
    np.testing.assert_array_equal(counts, np.arange(d, dtype=np.int64))


def test_accumulate_packed_rejects_bad_accumulator_shape():
    oracle = make_oracle("oue", epsilon=2.0)
    reports = _random_packed(np.random.default_rng(0), 4, 9)
    with pytest.raises(ValueError, match="accumulator"):
        oracle.accumulate_packed(np.zeros(8, dtype=np.int64), reports, 9)


def test_support_counts_rejects_domain_mismatch():
    oracle = make_oracle("oue", epsilon=2.0)
    reports = _random_packed(np.random.default_rng(0), 4, 9)
    with pytest.raises(ValueError, match="domain size"):
        oracle.support_counts(reports, 17)


# --------------------------------------------------------------------------- #
# Buffer contract: zero-copy, read-only, size-checked
# --------------------------------------------------------------------------- #
def test_from_buffer_is_zero_copy_and_read_only():
    original = _random_packed(np.random.default_rng(1), 6, 13)
    payload = original.tobytes()
    view = PackedUnaryReports.from_buffer(payload, n_users=6, domain_size=13)
    assert view == original
    assert not view.data.flags.writeable
    with pytest.raises(ValueError):
        view.data[0, 0] = 255
    # No copy: the array aliases the payload bytes.
    assert np.shares_memory(view.data, np.frombuffer(payload, dtype=np.uint8))


def test_from_buffer_rejects_size_mismatch():
    with pytest.raises(ValueError, match="expected"):
        PackedUnaryReports.from_buffer(b"\x00" * 5, n_users=2, domain_size=13)


def test_asarray_escape_hatch_yields_dense_matrix():
    reports = _random_packed(np.random.default_rng(2), 3, 11)
    dense = np.asarray(reports)
    assert dense.shape == (3, 11)
    np.testing.assert_array_equal(dense, reports.unpack())


# --------------------------------------------------------------------------- #
# Wire codec: malformed packed payloads are structured errors
# --------------------------------------------------------------------------- #
def _unary_batch(n=12, d=10):
    oracle = make_oracle("oue", epsilon=2.0)
    values = np.random.default_rng(0).integers(0, d, size=n)
    return ReportBatch(
        party="p",
        level=1,
        oracle_name="oue",
        epsilon=2.0,
        domain_size=d,
        value_domain=2,
        n_users=n,
        reports=oracle.perturb_packed(values, d, rng=5),
    )


def test_codec_round_trips_packed_batches():
    batch = _unary_batch()
    decoded = decode_report_batch(encode_report_batch(batch))
    assert isinstance(decoded.reports, PackedUnaryReports)
    assert decoded.reports == batch.reports


def test_codec_rejects_truncated_packed_payload():
    payload = bytearray(encode_report_batch(_unary_batch()))
    with pytest.raises(WireFormatError):
        decode_report_batch(bytes(payload[:-3]))


def test_codec_rejects_oversized_packed_payload():
    payload = encode_report_batch(_unary_batch())
    with pytest.raises(WireFormatError):
        decode_report_batch(payload + b"\x00\x00")


# --------------------------------------------------------------------------- #
# The sparse Bernoulli position sampler
# --------------------------------------------------------------------------- #
def test_bernoulli_positions_edge_cases():
    gen = np.random.default_rng(0)
    assert _bernoulli_positions(gen, 0, 0.5).size == 0
    assert _bernoulli_positions(gen, 100, 0.0).size == 0
    np.testing.assert_array_equal(
        _bernoulli_positions(gen, 7, 1.0), np.arange(7, dtype=np.int64)
    )


@given(
    total=st.integers(min_value=1, max_value=5000),
    q=st.floats(min_value=1e-4, max_value=0.999, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_bernoulli_positions_are_sorted_unique_in_range(total, q, seed):
    positions = _bernoulli_positions(np.random.default_rng(seed), total, q)
    assert positions.dtype == np.int64
    if positions.size:
        assert positions[0] >= 0
        assert positions[-1] < total
        assert np.all(np.diff(positions) > 0)


def test_bernoulli_positions_match_rate():
    total, q = 200_000, 0.05
    positions = _bernoulli_positions(np.random.default_rng(11), total, q)
    rate = positions.size / total
    # 6σ band around the Bernoulli rate.
    sigma = np.sqrt(q * (1 - q) / total)
    assert abs(rate - q) < 6 * sigma
