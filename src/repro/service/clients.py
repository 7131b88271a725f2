"""Client-side load generation for the online aggregation service.

A :class:`ClientPool` stands in for a party's user population: it holds the
raw (private) items, draws reporting users, and emits **privatized report
batches of bounded size** — the full ``(n_users, domain_size)`` report
matrix of the batch simulations is never materialised, which is what lets a
single laptop stream millions of users through the service
(``examples/streaming_service.py``).

Determinism contract: batches are perturbed in user order from one shared
generator, consuming it exactly like the in-memory batched path
(:meth:`repro.ldp.base.FrequencyOracle.run` with the same ``batch_size``).
For a fixed seed the streamed supports are therefore bit-identical to the
in-memory computation.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.config import DEFAULT_REPORT_BATCH_SIZE
from repro.federation.party import Party
from repro.ldp.base import FrequencyOracle
from repro.service.protocol import ReportBatch
from repro.trie.candidate_domain import CandidateDomain
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive


def iter_perturbed_batches(
    oracle: FrequencyOracle,
    values: np.ndarray,
    domain_size: int,
    rng: RandomState = None,
    *,
    batch_size: int | None = None,
    party: str = "clients",
    level: int = 0,
) -> Iterator[ReportBatch]:
    """Perturb encoded ``values`` into bounded :class:`ReportBatch` objects.

    The low-level streaming primitive shared by :class:`ClientPool` and the
    service round runner: ``values`` are already candidate indices over the
    round's domain, and batches come out in user order, each perturbed with
    the shared generator.
    """
    batch_size = DEFAULT_REPORT_BATCH_SIZE if batch_size is None else int(batch_size)
    check_positive("batch_size", batch_size)
    gen = as_generator(rng)
    values = np.asarray(values, dtype=np.int64)
    # Same guard as the in-memory oracle.run path: fail loudly up front
    # instead of deep inside a batch perturbation (or, worse, silently).
    if values.size and (values.min() < 0 or values.max() >= domain_size):
        raise ValueError("values must be candidate indices within the domain")
    value_domain = oracle.report_value_domain(domain_size)
    # A unary oracle's perturb returns the packed wire form itself,
    # scattered through one bounded scratch chunk at a time, so the client
    # never materialises the bit matrix.
    for start in range(0, int(values.size), batch_size):
        chunk = values[start : start + batch_size]
        reports = oracle.perturb(chunk, domain_size, gen)
        yield ReportBatch(
            party=party,
            level=int(level),
            oracle_name=oracle.name,
            epsilon=oracle.epsilon,
            domain_size=int(domain_size),
            value_domain=int(value_domain),
            n_users=int(chunk.size),
            reports=reports,
        )


class ClientPool:
    """A population of reporting clients backed by raw item data.

    Parameters
    ----------
    items:
        One private item id per user (a :class:`~repro.federation.party.Party`
        items array, or any integer array).
    name:
        Pool identifier stamped onto emitted batches.
    batch_size:
        Bound on the reports per emitted batch.
    """

    def __init__(
        self,
        items: np.ndarray,
        *,
        name: str = "clients",
        batch_size: int = DEFAULT_REPORT_BATCH_SIZE,
    ):
        check_positive("batch_size", batch_size)
        self.items = np.asarray(items, dtype=np.int64)
        if self.items.ndim != 1 or self.items.size == 0:
            raise ValueError("a client pool needs a non-empty 1-D item array")
        self.name = name
        self.batch_size = int(batch_size)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_party(cls, party: Party, *, batch_size: int = DEFAULT_REPORT_BATCH_SIZE) -> "ClientPool":
        """Wrap one party's user population."""
        return cls(party.items, name=party.name, batch_size=batch_size)

    @classmethod
    def from_dataset(
        cls, dataset, *, party: str | None = None, batch_size: int = DEFAULT_REPORT_BATCH_SIZE
    ) -> "ClientPool":
        """Wrap a registry dataset — one party, or the pooled population."""
        if party is not None:
            for candidate in dataset.parties:
                if candidate.name == party:
                    return cls.from_party(candidate, batch_size=batch_size)
            raise KeyError(
                f"dataset {dataset.name!r} has no party {party!r}; "
                f"available: {[p.name for p in dataset.parties]}"
            )
        items = np.concatenate([p.items for p in dataset.parties])
        return cls(items, name=dataset.name, batch_size=batch_size)

    @classmethod
    def from_arrivals(
        cls,
        arrivals: Iterable,
        *,
        name: str = "arrivals",
        batch_size: int = DEFAULT_REPORT_BATCH_SIZE,
    ) -> "ClientPool":
        """Pool the users of an arrival-batch iterator.

        The arrival-iterator seam shared with
        :meth:`repro.service.streaming.SlidingWindowDiscovery.track`: each
        element is either a plain 1-D item array or anything with an
        ``items`` attribute (e.g. a scenario's
        :class:`~repro.scenarios.scenario.ArrivalBatch`).  The iterator is
        drained eagerly — use this to serve a finite arrival history, not
        an endless stream.
        """
        items = [
            np.asarray(getattr(batch, "items", batch), dtype=np.int64)
            for batch in arrivals
        ]
        if not items:
            raise ValueError("a client pool needs at least one arrival batch")
        return cls(np.concatenate(items), name=name, batch_size=batch_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_users(self) -> int:
        """Number of clients in the pool."""
        return int(self.items.size)

    def draw_users(self, n: int, rng: RandomState = None) -> np.ndarray:
        """Sample ``n`` reporting users (with replacement: load generation)."""
        check_positive("n", n)
        gen = as_generator(rng)
        return gen.integers(0, self.n_users, size=n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Report streaming
    # ------------------------------------------------------------------ #
    def iter_report_batches(
        self,
        oracle: FrequencyOracle,
        domain: CandidateDomain,
        n_bits: int,
        rng: RandomState = None,
        *,
        user_indices: np.ndarray | None = None,
        level: int | None = None,
    ) -> Iterator[ReportBatch]:
        """Encode and perturb a round's reports in bounded batches.

        Each selected user's item is truncated to the domain's prefix
        length, mapped onto the candidate domain (out-of-domain → dummy),
        and perturbed through ``oracle``; batches stream out in user order.
        """
        if user_indices is None:
            items = self.items
        else:
            items = self.items[np.asarray(user_indices, dtype=np.int64)]
        values = domain.encode_items(items, n_bits)
        yield from iter_perturbed_batches(
            oracle,
            values,
            domain.size,
            rng,
            batch_size=self.batch_size,
            party=self.name,
            level=domain.prefix_length if level is None else level,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientPool(name={self.name!r}, n_users={self.n_users}, "
            f"batch_size={self.batch_size})"
        )
