"""The columnar privacy accountant answers every query exactly as a per-user
dict accountant does.

``DictAccountant`` below is the reference: one record object and one dict
update per user per report, and a merge that adds the other accountant's
per-user totals key by key.  Random record streams — duplicate users,
interleaved parties, mixed ε, split across nested accountants merged in
order — must give equal answers with ``==``: the same float sums, and the
same first-seen order of users who reported more than once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldp.budget import PrivacyAccountant


@dataclass(frozen=True)
class _Record:
    user_id: int
    party: str
    level: int
    epsilon: float
    oracle: str
    domain_size: int


@dataclass
class DictAccountant:
    """Reference: the per-user accountant the columnar one must match."""

    epsilon: float
    records: list[_Record] = field(default_factory=list)
    per_user: dict = field(default_factory=lambda: defaultdict(float))

    def record(self, user_ids, *, party, level, epsilon, oracle, domain_size):
        for uid in user_ids:
            self.records.append(
                _Record(int(uid), party, int(level), float(epsilon), oracle, int(domain_size))
            )
            self.per_user[(party, int(uid))] += float(epsilon)

    def merge(self, other):
        self.records.extend(other.records)
        for key, eps in other.per_user.items():
            self.per_user[key] += eps

    def spent(self, party, user_id):
        return self.per_user.get((party, int(user_id)), 0.0)

    def max_spent(self):
        return max(self.per_user.values()) if self.per_user else 0.0

    def n_reports(self):
        return len(self.records)

    def users_reporting_more_than_once(self):
        counts = defaultdict(int)
        for rec in self.records:
            counts[(rec.party, rec.user_id)] += 1
        return [key for key, c in counts.items() if c > 1]

    def satisfies_ldp(self):
        return (
            self.max_spent() <= self.epsilon + 1e-12
            and not self.users_reporting_more_than_once()
        )


PARTIES = ("a", "b", "c")

BLOCKS = st.fixed_dictionaries(
    {
        # A small id range, so users repeat within and across blocks.
        "user_ids": st.lists(st.integers(min_value=0, max_value=12), max_size=8),
        "as_array": st.booleans(),
        "party": st.sampled_from(PARTIES),
        "level": st.integers(min_value=1, max_value=6),
        # Values whose float sums depend on the order they are added in.
        "epsilon": st.one_of(
            st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 2.0]),
            st.floats(min_value=1e-3, max_value=8.0),
        ),
        "oracle": st.sampled_from(("krr", "oue", "olh")),
        "domain_size": st.integers(min_value=1, max_value=64),
    }
)

#: A list of operations: a dict records a block, a nested list is another
#: accountant built from those operations and then merged.
STREAMS = st.recursive(
    st.lists(BLOCKS, max_size=6),
    lambda children: st.lists(st.one_of(BLOCKS, children), max_size=5),
    max_leaves=30,
)


def _build(cls, ops, epsilon):
    accountant = cls(epsilon=epsilon)
    for op in ops:
        if isinstance(op, list):
            accountant.merge(_build(cls, op, epsilon))
            continue
        ids = op["user_ids"]
        accountant.record(
            np.array(ids, dtype=np.int32) if op["as_array"] else iter(ids),
            party=op["party"],
            level=op["level"],
            epsilon=op["epsilon"],
            oracle=op["oracle"],
            domain_size=op["domain_size"],
        )
    return accountant


def _assert_same_answers(columnar, reference):
    assert columnar.n_reports() == reference.n_reports()
    assert columnar.max_spent() == reference.max_spent()
    assert columnar.users_reporting_more_than_once() == (
        reference.users_reporting_more_than_once()
    )
    assert columnar.satisfies_ldp() == reference.satisfies_ldp()
    for party in PARTIES:
        for uid in range(14):
            assert columnar.spent(party, uid) == reference.spent(party, uid)
    expanded = [
        (int(uid), block.party, block.level, block.epsilon, block.oracle, block.domain_size)
        for block in columnar.blocks
        for uid in block.user_ids
    ]
    assert expanded == [
        (r.user_id, r.party, r.level, r.epsilon, r.oracle, r.domain_size)
        for r in reference.records
    ]


@given(ops=STREAMS, epsilon=st.sampled_from([0.5, 2.0, 4.0]))
@settings(max_examples=300, deadline=None)
def test_every_query_equals_the_dict_reference(ops, epsilon):
    _assert_same_answers(
        _build(PrivacyAccountant, ops, epsilon), _build(DictAccountant, ops, epsilon)
    )


def test_split_stream_keeps_the_merge_rule_sums():
    """Flattening merges would sum 0.1 + 0.2 + 0.3 in one chain; the dict
    reference adds the merged accountant's total 0.2 + 0.3 as one value."""
    ops = [
        {"user_ids": [5], "as_array": False, "party": "a", "level": 1,
         "epsilon": eps, "oracle": "krr", "domain_size": 4}
        for eps in (0.1, 0.2, 0.3)
    ]
    stream = [ops[0], [ops[1], ops[2]]]
    columnar = _build(PrivacyAccountant, stream, 1.0)
    reference = _build(DictAccountant, stream, 1.0)
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert columnar.spent("a", 5) == reference.spent("a", 5) == 0.1 + (0.2 + 0.3)
    _assert_same_answers(columnar, reference)


def test_merge_is_a_snapshot():
    """Reports recorded into an accountant after it was merged stay out of
    the accountant it was merged into, as with the dict reference."""
    pair = []
    for cls in (PrivacyAccountant, DictAccountant):
        child, parent = cls(epsilon=1.0), cls(epsilon=1.0)
        child.record([1, 2], party="a", level=1, epsilon=1.0, oracle="krr", domain_size=4)
        parent.merge(child)
        child.record([1], party="a", level=2, epsilon=1.0, oracle="krr", domain_size=4)
        parent.merge(parent)
        pair.append(parent)
    _assert_same_answers(*pair)
    assert pair[0].spent("a", 1) == 2.0
