"""Shard merge algebra: any partition of a report batch ingests to the same
counts as the whole, for every registered oracle.

A shard folds counts one way only: ``ingest(reports)`` adds
``oracle.support_counts(reports)``, in process and behind a gateway
alike.  :class:`TestOneFold` pins that fold against the oracle's own
accumulator for every report form.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.defense import RobustMergePolicy
from repro.ldp import olh as olh_module
from repro.ldp.packed import PackedUnaryReports
from repro.ldp.registry import available_oracles, make_oracle
from repro.ldp.unary import UnaryEncodingOracle
from repro.service.shards import LevelShard, ShardError

DOMAIN = 29
N_USERS = 400


def _perturbed(oracle_name: str):
    oracle = make_oracle(oracle_name, epsilon=3.0)
    values = np.random.default_rng(2).integers(0, DOMAIN, size=N_USERS)
    reports = oracle.perturb(values, DOMAIN, np.random.default_rng(3))
    return oracle, reports


def _slice_reports(reports, start: int, stop: int):
    """Slice a report batch along the user axis, whatever its shape."""
    if isinstance(reports, tuple):  # OLH: (seeds, buckets)
        return tuple(part[start:stop] for part in reports)
    if isinstance(reports, PackedUnaryReports):
        return PackedUnaryReports(
            reports.data[start:stop],
            n_users=stop - start,
            domain_size=reports.domain_size,
        )
    return reports[start:stop]


def _random_partitions(rng: np.random.Generator, n: int, count: int = 5):
    """A few random partitions of range(n) into contiguous pieces."""
    for _ in range(count):
        n_cuts = int(rng.integers(1, 6))
        cuts = np.sort(rng.integers(0, n + 1, size=n_cuts))
        bounds = [0, *cuts.tolist(), n]
        yield [
            (bounds[i], bounds[i + 1])
            for i in range(len(bounds) - 1)
        ]


class TestMergeAlgebra:
    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_any_partition_equals_whole(self, oracle_name):
        oracle, reports = _perturbed(oracle_name)
        whole = LevelShard(oracle, DOMAIN)
        whole.ingest(reports)
        rng = np.random.default_rng(11)
        for partition in _random_partitions(rng, N_USERS):
            pieces = []
            for start, stop in partition:
                shard = LevelShard(oracle, DOMAIN)
                shard.ingest(_slice_reports(reports, start, stop))
                pieces.append(shard)
            merged = pieces[0]
            for shard in pieces[1:]:
                merged = merged.merge(shard)
            assert np.array_equal(merged.counts, whole.counts)
            assert merged.n_users == whole.n_users == N_USERS

    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_merge_is_commutative(self, oracle_name):
        oracle, reports = _perturbed(oracle_name)
        left, right = LevelShard(oracle, DOMAIN), LevelShard(oracle, DOMAIN)
        left.ingest(_slice_reports(reports, 0, 150))
        right.ingest(_slice_reports(reports, 150, N_USERS))
        ab = LevelShard(oracle, DOMAIN)
        ab.ingest(_slice_reports(reports, 0, 150))
        ab.merge(right)
        ba = LevelShard(oracle, DOMAIN)
        ba.ingest(_slice_reports(reports, 150, N_USERS))
        ba.merge(left)
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.n_users == ba.n_users

    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_batched_ingest_equals_one_shot(self, oracle_name):
        oracle, reports = _perturbed(oracle_name)
        whole = LevelShard(oracle, DOMAIN)
        whole.ingest(reports)
        streamed = LevelShard(oracle, DOMAIN)
        for start in range(0, N_USERS, 64):
            streamed.ingest(_slice_reports(reports, start, min(start + 64, N_USERS)))
        assert np.array_equal(streamed.counts, whole.counts)
        assert streamed.n_batches == 7


def _report_forms():
    """(oracle name, report form) pairs: every oracle, in its one form."""
    for name in available_oracles():
        if isinstance(make_oracle(name, 1.0), UnaryEncodingOracle):
            yield name, "packed"
        else:
            yield name, "native"


def _batches(oracle, domain: int, sizes, seed: int = 5):
    """Independently perturbed report batches of the given sizes."""
    rng = np.random.default_rng(seed)
    return [
        oracle.perturb(rng.integers(0, domain, size=size), domain, rng)
        for size in sizes
    ]


def _reference_fold(oracle, batches, domain: int) -> np.ndarray:
    """The oracle's own accumulator, batch by batch."""
    counts = np.zeros(domain, dtype=np.int64)
    for reports in batches:
        counts = oracle.accumulate(counts, reports, domain)
    return counts


class TestOneFold:
    """``ingest`` ≡ the oracle's own fold."""

    SIZES = (90, 1, 250, 64, 0, 133)

    def _assert_fold(self, oracle, batches, domain, *, defense=None):
        shard = LevelShard(oracle, domain, defense=defense)
        for reports in batches:
            assert shard.ingest(reports) == oracle.n_reports(reports)
        reference = _reference_fold(oracle, batches, domain)
        assert shard.counts.dtype == np.int64
        assert shard.counts.tobytes() == reference.tobytes()
        assert shard.n_users == sum(oracle.n_reports(r) for r in batches)
        assert shard.n_batches == len(batches)
        return shard

    @pytest.mark.parametrize("oracle_name,form", list(_report_forms()))
    def test_every_report_form(self, oracle_name, form):
        oracle = make_oracle(oracle_name, epsilon=2.5)
        batches = _batches(oracle, DOMAIN, self.SIZES)
        self._assert_fold(oracle, batches, DOMAIN)

    @pytest.mark.parametrize("oracle_name,form", list(_report_forms()))
    def test_defended_effective_counts(self, oracle_name, form):
        oracle = make_oracle(oracle_name, epsilon=2.5)
        batches = _batches(oracle, DOMAIN, self.SIZES)
        policy = RobustMergePolicy(kind="trimmed", fraction=0.25, min_sources=4)
        shard = self._assert_fold(oracle, batches, DOMAIN, defense=policy)
        expected = policy.apply(
            [oracle.support_counts(r, DOMAIN) for r in batches],
            [oracle.n_reports(r) for r in batches],
            DOMAIN,
        )
        assert shard.effective_counts().tobytes() == np.asarray(expected).tobytes()
        # Six sources clear min_sources, so the trim actually ran.
        assert not np.array_equal(shard.effective_counts(), shard.counts)

    def test_olh_over_several_blocks(self):
        """A domain spanning several candidate chunks and a batch spanning
        several report blocks fold exactly like the flat reference scan."""
        oracle = make_oracle("olh", epsilon=2.0)
        r_block = olh_module._DECODE_REPORT_BLOCK
        c_chunk = max(1, olh_module._DECODE_BLOCK_ELEMENTS // r_block)
        domain = 3 * c_chunk + 2
        batches = _batches(oracle, domain, (r_block + 123, 7))
        shard = self._assert_fold(oracle, batches, domain)
        seeds, ys = batches[0]
        flat = [
            int(np.count_nonzero(
                olh_module._universal_hash(
                    seeds, np.full(seeds.shape, x), oracle.hash_domain_size()
                ) == ys
            ))
            for x in range(domain)
        ]
        first = LevelShard(oracle, domain)
        first.ingest(batches[0])
        assert first.counts.tolist() == flat
        assert shard.n_users == r_block + 130

    @pytest.mark.parametrize("defended", [False, True])
    def test_mismatched_packed_batch_is_refused(self, defended):
        oracle = make_oracle("oue", 2.0)
        policy = RobustMergePolicy(kind="trimmed", fraction=0.25, min_sources=4)
        shard = LevelShard(oracle, DOMAIN, defense=policy if defended else None)
        wider = oracle.perturb(np.arange(5), DOMAIN + 8, rng=1)
        with pytest.raises(ValueError, match="domain size"):
            shard.ingest(wider)
        self._assert_untouched(shard)

    def test_out_of_domain_krr_batch_is_refused(self):
        shard = LevelShard(make_oracle("krr", 2.0), DOMAIN)
        with pytest.raises(ShardError, match="shape"):
            shard.ingest(np.array([0, DOMAIN]))
        self._assert_untouched(shard)

    @staticmethod
    def _assert_untouched(shard):
        assert shard.n_batches == 0
        assert shard.n_users == 0
        assert not shard.counts.any()
        assert not shard._sources


class TestCompatibilityChecks:
    def test_oracle_mismatch(self):
        krr = LevelShard(make_oracle("krr", 2.0), DOMAIN)
        oue = LevelShard(make_oracle("oue", 2.0), DOMAIN)
        with pytest.raises(ShardError, match="oracle"):
            krr.merge(oue)

    def test_epsilon_mismatch(self):
        a = LevelShard(make_oracle("krr", 2.0), DOMAIN)
        b = LevelShard(make_oracle("krr", 3.0), DOMAIN)
        with pytest.raises(ShardError, match="epsilon"):
            a.merge(b)

    def test_domain_mismatch(self):
        a = LevelShard(make_oracle("krr", 2.0), DOMAIN)
        b = LevelShard(make_oracle("krr", 2.0), DOMAIN + 1)
        with pytest.raises(ShardError, match="domain"):
            a.merge(b)
