"""Privacy-budget accounting for the federated simulation.

Under ε-LDP the privacy guarantee is per *user*: each user's single report
must be produced by an ε-LDP mechanism, and a user must not report twice
(which would consume 2ε by sequential composition).  The mechanisms in this
repository divide users into disjoint groups and query each group exactly
once; :class:`PrivacyAccountant` keeps one block per report batch — the
batch's user ids as one int64 array plus its scalar party, level, ε, oracle
and domain size — so tests (and callers who care) can assert the "one report
per user, full ε each" invariant that Theorems 5.1 and 6.1 rely on.  Every
query is answered with NumPy over the blocks; no Python object is built per
user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

import numpy as np


@dataclass(frozen=True, eq=False)
class ReportBlock:
    """One report batch: every user in ``user_ids`` reported once with ``epsilon``.

    ``user_ids`` is a read-only int64 copy, so a block can be shared by the
    accountants it is merged into.  Two blocks are equal when every scalar
    and every user id (in order) is equal.
    """

    party: str
    level: int
    epsilon: float
    oracle: str
    domain_size: int
    user_ids: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReportBlock):
            return NotImplemented
        return (
            self.party == other.party
            and self.level == other.level
            and self.epsilon == other.epsilon
            and self.oracle == other.oracle
            and self.domain_size == other.domain_size
            and np.array_equal(self.user_ids, other.user_ids)
        )


#: What an accountant holds, in order: blocks it recorded itself, and one
#: tuple per merged accountant — a snapshot of that accountant's parts.
_Part = Union[ReportBlock, tuple]


def _iter_blocks(parts: Iterable[_Part]) -> Iterator[ReportBlock]:
    for part in parts:
        if isinstance(part, ReportBlock):
            yield part
        else:
            yield from _iter_blocks(part)


def _party_totals(parts: Iterable[_Part], party: str) -> tuple[np.ndarray, np.ndarray]:
    """ε spent by each user of ``party``: sorted unique ids and their sums.

    The sums are built step by step in part order, as adding to a per-user
    dict would: a block adds its ε once per occurrence of each id, and a
    merged accountant adds its own finished per-user totals.
    """
    steps: list[tuple[np.ndarray, float | np.ndarray]] = []
    for part in parts:
        if isinstance(part, ReportBlock):
            if part.party == party:
                steps.append((part.user_ids, part.epsilon))
        else:
            steps.append(_party_totals(part, party))
    if not steps:
        return np.empty(0, dtype=np.int64), np.empty(0)
    ids = np.unique(np.concatenate([step_ids for step_ids, _ in steps]))
    sums = np.zeros(ids.size)
    for step_ids, amount in steps:
        where = np.searchsorted(ids, step_ids)
        if isinstance(amount, np.ndarray):
            sums[where] += amount  # a merged accountant's totals: each id once
        else:
            # Unbuffered and in index order: a repeated id adds ε again,
            # exactly as a sequential loop would.
            np.add.at(sums, where, amount)
    return ids, sums


@dataclass
class PrivacyAccountant:
    """Tracks per-user privacy expenditure across a mechanism run."""

    epsilon: float
    _parts: list[_Part] = field(default_factory=list)

    def record(
        self,
        user_ids: Iterable[int],
        *,
        party: str,
        level: int,
        epsilon: float,
        oracle: str,
        domain_size: int,
    ) -> None:
        """Record that every user in ``user_ids`` made one report with ``epsilon``."""
        if isinstance(user_ids, np.ndarray):
            ids = np.array(user_ids, dtype=np.int64)
        else:
            ids = np.fromiter(user_ids, dtype=np.int64)
        ids.flags.writeable = False
        self._parts.append(
            ReportBlock(
                party=party,
                level=int(level),
                epsilon=float(epsilon),
                oracle=oracle,
                domain_size=int(domain_size),
                user_ids=ids,
            )
        )

    def merge(self, other: "PrivacyAccountant") -> None:
        """Absorb another accountant's blocks (each party accounts locally).

        Every party's estimator records into its own accountant; after the
        run, the per-party accountants are merged — in party order — into
        the run-level one.  The other accountant's parts
        are kept as one nested snapshot, so :meth:`spent` adds its per-user
        totals as a whole, not its blocks one by one.
        """
        self._parts.append(tuple(other._parts))

    @property
    def blocks(self) -> list[ReportBlock]:
        """Every recorded block, in record and merge order."""
        return list(_iter_blocks(self._parts))

    def spent(self, party: str, user_id: int) -> float:
        """Total budget consumed by ``user_id`` of ``party``."""
        ids, sums = _party_totals(self._parts, party)
        at = int(np.searchsorted(ids, int(user_id)))
        if at < ids.size and ids[at] == int(user_id):
            return float(sums[at])
        return 0.0

    def max_spent(self) -> float:
        """Largest per-user budget across all users (0.0 when nothing recorded)."""
        peaks = []
        for party in {block.party for block in self.blocks}:
            _, sums = _party_totals(self._parts, party)
            if sums.size:
                peaks.append(sums.max())
        return float(max(peaks)) if peaks else 0.0

    def n_reports(self) -> int:
        """Total number of reports recorded."""
        return sum(block.user_ids.size for block in self.blocks)

    def users_reporting_more_than_once(self) -> list[tuple[str, int]]:
        """Users that reported multiple times (LDP violation under parallel composition).

        Keys come in the order their first report was recorded.
        """
        blocks = [block for block in self.blocks if block.user_ids.size]
        if not blocks:
            return []
        parties = list(dict.fromkeys(block.party for block in blocks))
        code = {party: index for index, party in enumerate(parties)}
        ids = np.concatenate([block.user_ids for block in blocks])
        codes = np.repeat(
            np.array([code[block.party] for block in blocks], dtype=np.int64),
            [block.user_ids.size for block in blocks],
        )
        _, first, counts = np.unique(
            np.stack([codes, ids], axis=1), axis=0, return_index=True, return_counts=True
        )
        return [(parties[codes[at]], int(ids[at])) for at in np.sort(first[counts > 1])]

    def satisfies_ldp(self) -> bool:
        """True iff no user exceeded the declared ε and nobody reported twice."""
        tolerance = 1e-12
        return (
            self.max_spent() <= self.epsilon + tolerance
            and not self.users_reporting_more_than_once()
        )
