"""Programmatic serve harness: server + client pools, one call.

``repro serve`` (and anything else that wants a running service without
hand-wiring rounds) uses :func:`serve_dataset`: it stands up an
:class:`~repro.service.server.AggregationServer`, wraps every party of a
dataset in a :class:`~repro.service.clients.ClientPool`, streams one or
more frequency-oracle rounds through the wire codecs, each a
:class:`~repro.service.server.ServiceRoundRunner` round (the loop a
service-mode mechanism runs), and returns a
:class:`ServeReport` with per-round wire-bit accounting and the estimated
top prefixes.

The harness exercises the *raw* service protocol — one candidate domain,
real byte batches, exact accounting — rather than a full TAP/TAPS run; for
the latter use ``MechanismConfig(execution_mode="service")``.  Seeds fan
out per (round, party) before anything streams, so reports are independent
of scheduling and a fixed ``seed`` reproduces the same wire transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAULT_REPORT_BATCH_SIZE
from repro.datasets.base import FederatedDataset
from repro.ldp.registry import make_oracle
from repro.service.clients import ClientPool
from repro.service.server import AggregationServer, ServiceRoundRunner
from repro.trie.candidate_domain import CandidateDomain
from repro.utils.rng import RandomState, as_generator, spawn_seeds
from repro.utils.tables import TextTable
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class RoundReport:
    """Accounting and estimates of one streamed (round, party) pair."""

    round_index: int
    party: str
    level: int
    n_users: int
    n_batches: int
    domain_size: int
    upload_bits: int
    broadcast_bits: int
    #: The estimated top prefixes, most frequent first: (prefix, count).
    top_prefixes: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in self.__dataclass_fields__}
        out["top_prefixes"] = [[p, c] for p, c in self.top_prefixes]
        return out


@dataclass
class ServeReport:
    """Everything one :func:`serve_dataset` call put on the wire."""

    dataset: str
    oracle: str
    epsilon: float
    level: int
    batch_size: int
    rounds: list[RoundReport] = field(default_factory=list)

    @property
    def upload_bits(self) -> int:
        """Total client → server wire bits across all rounds."""
        return sum(r.upload_bits for r in self.rounds)

    @property
    def broadcast_bits(self) -> int:
        """Total server → client wire bits across all rounds."""
        return sum(r.broadcast_bits for r in self.rounds)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "oracle": self.oracle,
            "epsilon": self.epsilon,
            "level": self.level,
            "batch_size": self.batch_size,
            "upload_bits": self.upload_bits,
            "broadcast_bits": self.broadcast_bits,
            "rounds": [r.to_dict() for r in self.rounds],
        }

    def render(self) -> str:
        """A per-round accounting table, ready to print."""
        table = TextTable(
            [
                "round",
                "party",
                "users",
                "batches",
                "upload (kB)",
                "broadcast (B)",
                "top prefixes",
            ]
        )
        for r in self.rounds:
            top = " ".join(p for p, _ in r.top_prefixes[:3])
            table.add_row(
                [
                    r.round_index,
                    r.party,
                    r.n_users,
                    r.n_batches,
                    r.upload_bits / 8e3,
                    r.broadcast_bits // 8,
                    top,
                ]
            )
        title = (
            f"serve: dataset={self.dataset} oracle={self.oracle} "
            f"eps={self.epsilon:g} level={self.level} "
            f"batch_size={self.batch_size} "
            f"total_upload={self.upload_bits / 8e3:.1f}kB"
        )
        return table.render(title=title)


def serve_dataset(
    dataset: FederatedDataset,
    *,
    epsilon: float = 4.0,
    oracle: str = "krr",
    level: int = 6,
    rounds: int = 1,
    batch_size: int = DEFAULT_REPORT_BATCH_SIZE,
    users_per_round: int | None = None,
    top: int = 10,
    seed: RandomState = None,
) -> ServeReport:
    """Stream ``rounds`` full service rounds for every party of a dataset.

    Each round opens over the *full* length-``level`` prefix domain (so the
    harness needs no trie state), lets every party's client pool perturb
    and upload its reports in bounded batches, and finalises into count
    estimates whose ``top`` prefixes are reported.

    >>> from repro.datasets.registry import load_dataset
    >>> report = serve_dataset(
    ...     load_dataset("rdb", scale="tiny", seed=0),
    ...     level=4, batch_size=256, seed=0,
    ... )
    >>> len(report.rounds) == 2 and report.upload_bits > 0  # two parties
    True
    """
    check_positive("rounds", rounds)
    check_positive("level", level)
    if level > dataset.n_bits:
        raise ValueError(
            f"level ({level}) cannot exceed the dataset's n_bits ({dataset.n_bits})"
        )
    if users_per_round is not None:
        check_positive("users_per_round", users_per_round)
    domain = CandidateDomain.full_domain(level)
    gen = as_generator(seed)
    pools = [
        ClientPool.from_party(party, batch_size=batch_size)
        for party in dataset.parties
    ]
    # One seed per (round, party), fanned out up front: the wire transcript
    # is a function of the seed alone, never of streaming order.
    seeds = iter(spawn_seeds(gen, rounds * len(pools)))

    report = ServeReport(
        dataset=dataset.name,
        oracle=oracle,
        epsilon=float(epsilon),
        level=int(level),
        batch_size=int(batch_size),
    )
    server = AggregationServer()
    for round_index in range(rounds):
        for pool in pools:
            round_gen = np.random.default_rng(next(seeds))
            items = pool.items
            if users_per_round is not None:
                items = items[pool.draw_users(users_per_round, round_gen)]
            # The estimate's metadata carries the round's exact wire bits,
            # so the runner's own message log is not needed here.
            runner = ServiceRoundRunner(
                server=server, party=pool.name, batch_size=batch_size
            )
            estimate = runner.run_round(
                make_oracle(oracle, epsilon),
                domain.encode_items(items, dataset.n_bits),
                domain,
                round_gen,
                mode="per_user",
            )
            counts = estimate.estimated_counts[: domain.n_candidates]
            order = np.argsort(counts)[::-1][:top]
            prefixes = domain.prefixes
            report.rounds.append(
                RoundReport(
                    round_index=round_index,
                    party=pool.name,
                    level=level,
                    n_users=estimate.n_users,
                    n_batches=estimate.metadata["n_batches"],
                    domain_size=domain.size,
                    upload_bits=estimate.metadata["upload_bits"],
                    broadcast_bits=estimate.metadata["broadcast_bits"],
                    top_prefixes=tuple(
                        (prefixes[i], float(counts[i])) for i in order
                    ),
                )
            )
    return report
