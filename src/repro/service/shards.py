"""Mergeable per-level support-count accumulators.

A :class:`LevelShard` is the server-side state of one frequency-oracle round
in the online aggregation service: an ``O(domain_size)`` integer vector that
report batches are folded into as they arrive.  Because support counting is
a sum, shards form a commutative monoid under :meth:`LevelShard.merge` —
ingesting a report stream whole, in any batching, or in separately-built
shards that are merged afterwards all produce identical counts (the algebra
``tests/test_service_shards.py`` pins down).

Every fold goes through one path, :meth:`LevelShard.ingest`: a decoded
batch is reduced to its ``oracle.support_counts`` vector (the packed
unpack-and-sum kernel for unary oracles, the blocked hash scan for OLH)
and added in.
"""

from __future__ import annotations

import numpy as np

from repro.ldp.base import FrequencyOracle


class ShardError(ValueError):
    """A shard operation violates the accumulator contract."""


class LevelShard:
    """Accumulates the support counts of one (party, level) round.

    Parameters
    ----------
    oracle:
        The frequency oracle whose reports the shard ingests.
    domain_size:
        Candidate-domain size (dummy included) of the round.
    defense:
        Optional robust-merge policy (duck-typed:
        ``apply(batch_counts, batch_users, domain_size) -> int64 counts``,
        e.g. :class:`repro.faults.defense.RobustMergePolicy`).  When set,
        the shard additionally records each ingested batch as a separate
        aggregation source so :meth:`effective_counts` can merge them
        robustly instead of linearly.  ``None`` (the default) keeps the
        exact-sum algebra and its bit-identity contract untouched.
    """

    def __init__(
        self, oracle: FrequencyOracle, domain_size: int, *, defense=None
    ):
        if domain_size < 1:
            raise ShardError(f"domain_size must be positive, got {domain_size}")
        self.oracle = oracle
        self.domain_size = int(domain_size)
        self.counts = np.zeros(self.domain_size, dtype=np.int64)
        self.n_users = 0
        self.n_batches = 0
        self.defense = defense
        #: Per-source (delta counts, n_users) pairs, kept only when defended.
        self._sources: list[tuple[np.ndarray, int]] | None = (
            [] if defense is not None else None
        )

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, reports: object) -> int:
        """Fold one report batch into the accumulator; returns its size.

        The one fold of the shard: the batch is reduced to its
        ``oracle.support_counts`` vector, which is added in.  A batch the
        oracle cannot count over this domain (a packed batch of another
        width, a k-RR value past the domain) is refused before any state
        changes.
        """
        counts = self.oracle.support_counts(reports, self.domain_size)
        if counts.shape != (self.domain_size,):
            raise ShardError(
                f"support counts have shape {counts.shape}, "
                f"expected ({self.domain_size},)"
            )
        n = self.oracle.n_reports(reports)
        if self._sources is not None:
            # ``support_counts`` returns a fresh vector: nothing aliases it.
            self._sources.append((counts, n))
        # In place: a fresh sum per batch is one more O(domain_size)
        # allocation per round (docs/architecture.md, "Cold start").
        self.counts += counts
        self.n_users += n
        self.n_batches += 1
        return n

    # ------------------------------------------------------------------ #
    # Merge algebra
    # ------------------------------------------------------------------ #
    def merge(self, other: "LevelShard") -> "LevelShard":
        """Absorb another shard built over the same round; returns ``self``.

        Associative and commutative: any merge tree over a partition of a
        report stream yields the counts of ingesting the stream whole.
        """
        self._check_compatible(other)
        if self._sources is not None:
            if other._sources is not None:
                self._sources.extend(other._sources)
            elif other.n_batches:
                # An undefended shard merges in as one opaque source.
                self._sources.append((other.counts.copy(), other.n_users))
        self.counts = self.oracle.merge_counts(self.counts, other.counts)
        self.n_users += other.n_users
        self.n_batches += other.n_batches
        return self

    def effective_counts(self) -> np.ndarray:
        """The counts the round's estimate is built from.

        The exact sum (:attr:`counts`) unless a defense policy is set, in
        which case the recorded per-source deltas are merged robustly.
        Deterministic either way, so defended runs replay exactly too.
        """
        if self.defense is None or not self._sources:
            return self.counts
        batch_counts = [counts for counts, _ in self._sources]
        batch_users = [users for _, users in self._sources]
        return self.defense.apply(batch_counts, batch_users, self.domain_size)

    def _check_compatible(self, other: "LevelShard") -> None:
        if not isinstance(other, LevelShard):
            raise ShardError(f"cannot merge a {type(other).__name__} into a shard")
        if other.oracle.name != self.oracle.name:
            raise ShardError(
                f"oracle mismatch: {self.oracle.name!r} vs {other.oracle.name!r}"
            )
        if other.oracle.epsilon != self.oracle.epsilon:
            raise ShardError(
                f"epsilon mismatch: {self.oracle.epsilon} vs {other.oracle.epsilon}"
            )
        if other.domain_size != self.domain_size:
            raise ShardError(
                f"domain mismatch: {self.domain_size} vs {other.domain_size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(oracle={self.oracle.name!r}, "
            f"domain_size={self.domain_size}, n_users={self.n_users})"
        )
