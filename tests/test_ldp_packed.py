"""Fuzz/property tests of the packed-bit unary report kernels.

The columnar hot path rests on two bit-identity contracts
(:mod:`repro.ldp.packed`):

* ``packed_column_counts`` equals unpack-then-``sum`` for every buffer,
* ``sample_unary_reports`` equals ``numpy.packbits`` of a plain ``(n, d)``
  boolean scatter of the same draws (:func:`_dense_reference`) for every
  seed — on both scatter strategies (byte-aligned boolean scratch for
  small batches, run-length packed scatter for large ones).

These tests hammer the awkward shapes (domains narrower than a byte, not
byte-aligned, single users, empty batches) and the codec's rejection of
malformed packed payloads.
"""

import dataclasses
from unittest import mock

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
# Sampler parity: both scatter paths ≡ packbits of the dense reference
# --------------------------------------------------------------------------- #
def _dense_reference(values, d, seed, p, q):
    """The retired dense sampler: the same draws scattered into ``(n, d)``."""
    gen = np.random.default_rng(seed)
    n = len(values)
    positions = _bernoulli_positions(gen, n * d, q)
    keep_true = gen.random(n) < p
    reports = np.zeros((n, d), dtype=bool)
    reports.ravel()[positions] = True
    reports[np.arange(n), values] = keep_true
    return reports


def _assert_sample_matches_reference(oracle, values, d, seed, run_length):
    """``oracle.perturb`` holds exactly ``packbits`` of the dense reference,
    on the scratch path or, with ``run_length``, the run-length path."""
    import repro.ldp.packed as packed_mod

    limit = 0 if run_length else packed_mod._PACK_SCRATCH_MAX_BITS
    if not run_length:
        assert len(values) * 8 * packed_row_bytes(d) <= limit
    with mock.patch.object(packed_mod, "_PACK_SCRATCH_MAX_BITS", limit):
        packed = oracle.perturb(values, d, rng=seed)
    p, q = oracle.support_probabilities(d)
    expected = np.packbits(_dense_reference(values, d, seed, p, q), axis=1)
    assert isinstance(packed, PackedUnaryReports)
    assert packed.data.shape == expected.shape
    assert (packed.data == expected).all()


@pytest.mark.parametrize("run_length", [False, True], ids=["scratch", "run_length"])
@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 64, 65])
@pytest.mark.parametrize("n", [0, 1, 129])
@pytest.mark.parametrize("oracle_name", UNARY_ORACLES)
def test_sample_matches_dense_reference(oracle_name, n, d, run_length):
    oracle = make_oracle(oracle_name, epsilon=1.5)
    values = np.random.default_rng(n + d).integers(0, d, size=n)
    _assert_sample_matches_reference(oracle, values, d, 42, run_length)


def test_default_threshold_covers_both_paths():
    # The shipped threshold actually splits real batch shapes across the
    # two scatter strategies (the whole point of having two).
    assert 2048 * 65 <= _PACK_SCRATCH_MAX_BITS < 65536 * 65


@given(
    n=st.integers(min_value=0, max_value=40),
    d=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    epsilon=st.floats(min_value=0.2, max_value=6.0, allow_nan=False),
    oracle_name=st.sampled_from(UNARY_ORACLES),
    run_length=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_sample_matches_dense_reference_fuzz(
    n, d, seed, epsilon, oracle_name, run_length
):
    oracle = make_oracle(oracle_name, epsilon=epsilon)
    values = np.random.default_rng(seed).integers(0, d, size=n)
    _assert_sample_matches_reference(oracle, values, d, seed, run_length)


# --------------------------------------------------------------------------- #
# Accumulation and refusals
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("oracle_name", UNARY_ORACLES)
def test_accumulate_adds_unpacked_column_sums(oracle_name):
    oracle = make_oracle(oracle_name, epsilon=2.0)
    d = 21
    counts = np.arange(d, dtype=np.int64)
    reports = _random_packed(np.random.default_rng(3), 50, d)
    accumulated = oracle.accumulate(counts, reports, d)
    np.testing.assert_array_equal(accumulated, counts + reports.unpack().sum(axis=0))
    # The accumulator argument itself is never mutated.
    np.testing.assert_array_equal(counts, np.arange(d, dtype=np.int64))


def test_accumulate_rejects_bad_accumulator_shape():
    oracle = make_oracle("oue", epsilon=2.0)
    reports = _random_packed(np.random.default_rng(0), 4, 9)
    with pytest.raises(ValueError, match="accumulator"):
        oracle.accumulate(np.zeros(8, dtype=np.int64), reports, 9)


def test_support_counts_rejects_domain_mismatch():
    oracle = make_oracle("oue", epsilon=2.0)
    reports = _random_packed(np.random.default_rng(0), 4, 9)
    with pytest.raises(ValueError, match="domain size"):
        oracle.support_counts(reports, 17)


@pytest.mark.parametrize("oracle_name", UNARY_ORACLES)
def test_support_counts_refuses_dense_matrix(oracle_name):
    oracle = make_oracle(oracle_name, epsilon=2.0)
    matrix = _random_packed(np.random.default_rng(0), 4, 9).unpack()
    with pytest.raises(ValueError, match="PackedUnaryReports"):
        oracle.support_counts(matrix, 9)


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
        reports=oracle.perturb(values, d, rng=5),
    )


def test_codec_round_trips_packed_batches():
    batch = _unary_batch()
    decoded = decode_report_batch(encode_report_batch(batch))
    assert isinstance(decoded.reports, PackedUnaryReports)
    assert decoded.reports == batch.reports


def test_codec_refuses_dense_unary_batch():
    batch = _unary_batch()
    dense = dataclasses.replace(batch, reports=np.asarray(batch.reports, dtype=bool))
    with pytest.raises(WireFormatError, match="PackedUnaryReports"):
        encode_report_batch(dense)


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
