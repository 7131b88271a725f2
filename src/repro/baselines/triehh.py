"""A TrieHH-style sample-and-threshold baseline (extension).

TrieHH (Zhu et al., AISTATS 2020) discovers heavy hitters by growing a trie
level by level: at each level a random sample of users "votes" for the next
character/bit extension of prefixes already in the trie, and only prefixes
with at least ``theta`` votes survive.  Privacy comes from sampling and
thresholding (central DP), *not* from local perturbation, which is exactly
why the paper positions it as a single-party, non-LDP alternative.

It is included as a reference/extension implementation: the examples use it
to illustrate the utility gap between anonymous voting and ε-LDP reports,
and the tests exercise the explicit :class:`~repro.trie.prefix_trie.PrefixTrie`
substrate through it.  It is not part of the paper's benchmarked baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.encoding.prefix import level_lengths, prefixes_of_items
from repro.federation.party import Party
from repro.trie.prefix_trie import PrefixTrie
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_in_range, check_positive


@dataclass
class TrieHHResult:
    """Outcome of a TrieHH-style run."""

    party: str
    heavy_hitters: list[int]
    trie: PrefixTrie
    votes_per_level: list[dict[str, int]] = field(default_factory=list)


class TrieHHBaseline:
    """Sample-and-threshold trie growth for a single party.

    Parameters
    ----------
    k:
        Number of heavy hitters to return.
    n_bits:
        Binary width ``m`` of the item encoding.
    granularity:
        Number of trie-growing rounds ``g``.
    sampling_fraction:
        Fraction of (so far unused) users sampled to vote in each round.
    theta:
        Vote threshold a prefix must reach to survive a round.
    """

    name = "triehh"

    def __init__(
        self,
        k: int = 10,
        n_bits: int = 16,
        granularity: int = 8,
        sampling_fraction: float = 0.1,
        theta: int = 3,
    ):
        check_positive("k", k)
        check_positive("n_bits", n_bits)
        check_positive("granularity", granularity)
        check_in_range("sampling_fraction", sampling_fraction, 0.0, 1.0, inclusive=False)
        check_positive("theta", theta)
        if granularity > n_bits:
            raise ValueError("granularity cannot exceed n_bits")
        self.k = k
        self.n_bits = n_bits
        self.granularity = granularity
        self.sampling_fraction = sampling_fraction
        self.theta = theta

    def run(self, party: Party, rng: RandomState = None) -> TrieHHResult:
        """Grow the trie on ``party`` and return its local heavy hitters."""
        gen = as_generator(rng)
        lengths = level_lengths(self.n_bits, self.granularity)
        trie = PrefixTrie()
        surviving: list[str] = [""]
        votes_per_level: list[dict[str, int]] = []
        available = np.arange(party.n_users)

        for level, length in enumerate(lengths, start=1):
            if available.size == 0 or not surviving:
                break
            sample_size = max(1, int(round(available.size * self.sampling_fraction)))
            sample_size = min(sample_size, available.size)
            chosen = gen.choice(available, size=sample_size, replace=False)
            available = np.setdiff1d(available, chosen, assume_unique=False)

            items = party.items[chosen]
            prefixes = prefixes_of_items(items, self.n_bits, length)
            votes: dict[str, int] = {}
            surviving_set = set(surviving)
            for prefix in prefixes:
                # A vote only counts if it extends a surviving prefix.
                parent_ok = any(prefix.startswith(p) for p in surviving_set)
                if parent_ok:
                    votes[prefix] = votes.get(prefix, 0) + 1
            votes_per_level.append(votes)

            survivors = [p for p, v in votes.items() if v >= self.theta]
            for prefix in survivors:
                trie.insert(prefix, count=votes[prefix])
            if not survivors:
                break
            surviving = survivors

        final_length = lengths[-1]
        leaves = [
            (node.prefix, node.count)
            for node in trie
            if node.depth == final_length
        ]
        leaves.sort(key=lambda pc: (-pc[1], pc[0]))
        heavy_hitters = [int(prefix, 2) for prefix, _ in leaves[: self.k]]
        return TrieHHResult(
            party=party.name,
            heavy_hitters=heavy_hitters,
            trie=trie,
            votes_per_level=votes_per_level,
        )
