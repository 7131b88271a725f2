"""The aggregation server: streamed rounds, sharded state, exact accounting.

An :class:`AggregationServer` owns the server side of the online protocol:
it opens one round per (party, level) frequency-oracle round, ingests
privatized report batches from the wire into a mergeable
:class:`~repro.service.shards.LevelShard`, and finalises the round into the
same :class:`~repro.ldp.base.EstimationResult` the in-memory path produces.
Server memory per round is ``O(domain_size)`` — independent of the number
of reporting users — and every message is logged with its **exact** wire
byte count.  The network gateway (:mod:`repro.net.gateway`) embeds one
server and calls the same :meth:`AggregationServer.ingest` on every wire
batch, so a round through a gateway runs exactly this code, checks and
errors included.

:class:`ServiceRoundRunner` plugs the server into the estimation seam
(:class:`repro.core.estimation.RoundRunner`), which is how
``execution_mode="service"`` turns TAP/TAPS (and the baselines) into
end-to-end streamed protocols without touching their trie logic.  The
non-negotiable invariant, enforced by ``tests/test_service_equivalence.py``:
for a fixed seed, a service run is bit-identical to the in-memory run with
the same report batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAULT_REPORT_BATCH_SIZE
from repro.core.estimation import RoundRunner
from repro.federation.messages import Message, MessageDirection
from repro.ldp.base import EstimationResult, FrequencyOracle
from repro.ldp.registry import make_oracle
from repro.service.clients import iter_perturbed_batches
from repro.service.protocol import (
    BroadcastHeader,
    ReportBatch,
    broadcast_wire_bits,
    decode_report_batch,
    encode_report_batch,
    wire_bits,
)
from repro.service.shards import LevelShard


#: Structured error codes a :class:`ServiceError` can carry.  The network
#: runtime (:mod:`repro.net`) ships them inside error frames, so a remote
#: client re-raises the *same* exception the in-memory path would have
#: raised; :data:`~repro.net.framing.ERROR_WIRE_FORMAT` covers codec
#: failures (:class:`~repro.service.protocol.WireFormatError`).
SERVICE_ERROR_CODES: tuple[str, ...] = (
    "protocol",          # generic protocol violation (the default)
    "unknown_round",     # round id was never opened on this server
    "round_closed",      # round has already been finalised
    "party_mismatch",    # batch came from a different party than the round's
    "level_mismatch",    # batch was produced for a different trie level
    "oracle_mismatch",   # batch was perturbed with a different oracle
    "epsilon_mismatch",  # batch reports a different privacy budget
    "domain_mismatch",   # batch was encoded over a different domain size
    "bad_mode",          # the execution mode has no per-user reports
    "admission_rejected",  # the gateway's admission control refused the request
    "internal",          # unexpected server-side failure (bug, not protocol)
    # Cross-shard failures (the cluster coordinator, repro.cluster):
    "shard_mismatch",        # a shard's exported state disagrees with the round
    "ring_version_mismatch",  # the hash ring changed while the round was open
    "shard_unavailable",     # a shard gateway died or stopped answering
)


class ServiceError(RuntimeError):
    """A request violates the aggregation-service protocol.

    ``code`` is a stable, machine-readable identifier from
    :data:`SERVICE_ERROR_CODES`: local callers can branch on it, and the
    network gateway puts it on the wire in an error frame so remote and
    in-memory failures are indistinguishable to the caller.
    """

    def __init__(self, message: str, *, code: str = "protocol"):
        super().__init__(message)
        if code not in SERVICE_ERROR_CODES:
            raise ValueError(
                f"unknown service error code {code!r}; "
                f"available: {sorted(SERVICE_ERROR_CODES)}"
            )
        self.code = code


@dataclass(frozen=True)
class ExportedShardState:
    """One round's raw accumulator state, lifted off a gateway.

    What every networked round close collects — one per shard, so one
    from a single gateway: the **exact** ``O(domain_size)`` int64
    support counts plus the round identity needed to validate the merge
    (estimation is nonlinear, so gateways never estimate — the client
    merges counts with the :class:`~repro.service.shards.LevelShard`
    algebra and estimates once, :func:`estimate_exported`).  It carries
    the round's ``broadcast_bits`` so the estimate metadata is exact even
    when the round is closed by a connection that did not open it.
    Travels as a ``FRAME_SHARD_STATE``
    (:func:`repro.net.framing.encode_shard_state`).
    """

    party: str
    level: int
    oracle_name: str
    epsilon: float
    domain_size: int
    n_users: int
    n_batches: int
    upload_bits: int
    broadcast_bits: int
    counts: np.ndarray


def finalize_estimate(
    oracle: FrequencyOracle,
    counts: np.ndarray,
    n_users: int,
    domain_size: int,
    *,
    n_batches: int,
    upload_bits: int,
    broadcast_bits: int,
) -> EstimationResult:
    """Estimate a finished round from its exact support counts.

    The one shared finalisation path: :meth:`AggregationServer.
    finalize_round` and every networked close (:func:`estimate_exported`)
    call it, which is what makes a gateway or N-shard round
    *bit-identical* to the in-process round over the same counts —
    identical numpy calls on identical int64 inputs, identical metadata.
    """
    n = int(n_users)
    est_counts = oracle.estimate_counts(counts, n, domain_size)
    est_freqs = est_counts / n if n else np.zeros_like(est_counts)
    return EstimationResult(
        support_counts=np.asarray(counts, dtype=np.int64),
        estimated_counts=est_counts,
        estimated_frequencies=est_freqs,
        n_users=n,
        domain_size=int(domain_size),
        oracle_name=oracle.name,
        epsilon=oracle.epsilon,
        metadata={
            "execution": "service",
            "n_batches": int(n_batches),
            "upload_bits": int(upload_bits),
            "broadcast_bits": int(broadcast_bits),
        },
    )


def estimate_exported(states: list[ExportedShardState]) -> EstimationResult:
    """Merge exported round states and estimate the round once.

    The client half of every networked round close: a single gateway
    hands over one :class:`ExportedShardState`, an N-shard cluster one
    per shard (validated against the logical round before this runs).
    The exact int64 counts merge with the oracle's commutative algebra
    and :func:`finalize_estimate` runs once over the totals.
    """
    first = states[0]
    oracle = make_oracle(first.oracle_name, first.epsilon)
    counts = np.zeros(first.domain_size, dtype=np.int64)
    for state in states:
        counts = oracle.merge_counts(counts, state.counts)
    return finalize_estimate(
        oracle,
        counts,
        sum(state.n_users for state in states),
        first.domain_size,
        n_batches=sum(state.n_batches for state in states),
        upload_bits=sum(state.upload_bits for state in states),
        broadcast_bits=first.broadcast_bits,
    )


@dataclass
class ServiceRound:
    """Server-side state of one open streamed frequency-oracle round.

    Closing the round (finalise or export) removes it from
    :attr:`AggregationServer.rounds`, shard and bookkeeping alike, so a
    long-lived server holds state only for its *open* rounds.
    """

    round_id: int
    party: str
    level: int
    oracle: FrequencyOracle
    domain_size: int
    shard: LevelShard
    n_batches: int = 0
    upload_bits: int = 0
    broadcast_bits: int = 0


class AggregationServer:
    """Ingests streamed report batches into per-round shards.

    Parameters
    ----------
    defense:
        Optional robust-merge policy applied to every round's shard
        (see :meth:`repro.service.shards.LevelShard.effective_counts`).
        Opt-in: a defended server finalises from the robust merge of its
        wire batches, deliberately departing from the plain-sum
        bit-identity contract.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; the server
        then mirrors its exact accounting into observe-only ``service_*``
        counters (rounds, batches, reports, exact wire bits).

    Examples
    --------
    Stream one round by hand — open, ingest bounded wire batches, finalise
    (``iter_perturbed_batches`` is what :class:`~repro.service.clients.ClientPool`
    uses under the hood):

    >>> import numpy as np
    >>> from repro.ldp.registry import make_oracle
    >>> from repro.service.clients import iter_perturbed_batches
    >>> from repro.trie.candidate_domain import CandidateDomain
    >>> server = AggregationServer()
    >>> domain = CandidateDomain.full_domain(2)
    >>> oracle = make_oracle("krr", 4.0)
    >>> rid = server.open_round(party="demo", level=2, oracle=oracle, domain=domain)
    >>> values = np.array([0, 1, 1, 3])
    >>> for batch in iter_perturbed_batches(oracle, values, domain.size, 0,
    ...                                     batch_size=2, party="demo", level=2):
    ...     _ = server.ingest_batch(rid, batch)
    >>> estimate = server.finalize_round(rid)
    >>> int(estimate.n_users), estimate.oracle_name
    (4, 'krr')
    >>> server.upload_bits() > 0 and server.broadcast_bits() > 0
    True
    """

    def __init__(self, *, defense=None, metrics=None):
        self.defense = defense
        self.rounds: dict[int, ServiceRound] = {}
        self._messages: list[Message] = []
        self._next_round_id = 0
        self._upload_bits = 0
        self._broadcast_bits = 0
        self._bind_metrics(metrics)

    def _bind_metrics(self, metrics) -> None:
        """Pre-bind the observe-only service counters (None: all no-ops).

        ``metrics`` is a :class:`~repro.obs.registry.MetricsRegistry`;
        the counters mirror the exact accounting the server already keeps
        (same bits, same batches), so telemetry cannot change a single
        accounted value — it only makes the running totals scrapeable.
        """
        self.metrics = metrics
        if metrics is None:
            self._m_rounds_opened = self._m_rounds_finalized = None
            self._m_batches = self._m_reports = None
            self._m_upload_bits = self._m_broadcast_bits = None
            return
        self._m_rounds_opened = metrics.counter("service_rounds_opened_total")
        self._m_rounds_finalized = metrics.counter("service_rounds_finalized_total")
        self._m_batches = metrics.counter("service_batches_total")
        self._m_reports = metrics.counter("service_reports_total")
        self._m_upload_bits = metrics.counter("service_upload_bits_total")
        self._m_broadcast_bits = metrics.counter("service_broadcast_bits_total")

    def shutdown(self) -> None:
        """Nothing to release: part of the server protocol a
        :class:`~repro.cluster.coordinator.ClusterCoordinator` shares."""

    # ------------------------------------------------------------------ #
    # Round lifecycle
    # ------------------------------------------------------------------ #
    def open_round(
        self, *, party: str, level: int, oracle: FrequencyOracle, domain
    ) -> int:
        """Open a streamed round over ``domain`` and broadcast it to clients.

        ``domain`` is a :class:`~repro.trie.candidate_domain.CandidateDomain`
        (anything with ``size``, ``n_candidates`` and ``prefix_length``
        works); the broadcast that announces the candidate prefixes is
        logged with its exact encoded size, replacing the batch
        simulations' analytic pair accounting.  That size follows from the
        broadcast header alone (:func:`~repro.service.protocol.
        broadcast_wire_bits`), so the broadcast is never encoded here.
        """
        round_id = self._next_round_id
        self._next_round_id += 1
        shard = LevelShard(oracle, domain.size, defense=self.defense)
        bits = broadcast_wire_bits(
            BroadcastHeader(
                party=party,
                level=int(level),
                oracle_name=oracle.name,
                epsilon=float(oracle.epsilon),
                domain_size=int(domain.size),
                n_prefixes=int(domain.n_candidates),
                prefix_length=int(domain.prefix_length),
            )
        )
        round_ = ServiceRound(
            round_id=round_id,
            party=party,
            level=int(level),
            oracle=oracle,
            domain_size=int(domain.size),
            shard=shard,
            broadcast_bits=bits,
        )
        self.rounds[round_id] = round_
        self._broadcast_bits += bits
        if self._m_rounds_opened is not None:
            self._m_rounds_opened.inc()
            self._m_broadcast_bits.inc(bits)
        self._messages.append(
            Message(
                direction=MessageDirection.SERVER_TO_PARTY,
                party=party,
                kind="service_round_open",
                payload_bits=bits,
                level=round_.level,
            )
        )
        return round_id

    @property
    def rounds_opened(self) -> int:
        """Rounds ever opened on this server (open and closed)."""
        return self._next_round_id

    def _round(self, round_id: int) -> ServiceRound:
        round_ = self.rounds.get(round_id)
        if round_ is not None:
            return round_
        if 0 <= round_id < self._next_round_id:
            # Ids are handed out in order and a closed round leaves the
            # dict, so an issued id that is missing was closed.
            raise ServiceError(
                f"round {round_id} is already finalised", code="round_closed"
            )
        raise ServiceError(f"unknown round {round_id}", code="unknown_round")

    def _close(self, round_id: int) -> ServiceRound:
        """Remove an open round, shard and bookkeeping, and return it."""
        round_ = self._round(round_id)
        del self.rounds[round_id]
        if self._m_rounds_finalized is not None:
            self._m_rounds_finalized.inc()
        return round_

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, round_id: int, payload: bytes) -> int:
        """Decode one wire batch into the round's shard; returns its size."""
        # Round-state errors take precedence over codec errors (and save
        # the decode work): a corrupt payload for a closed round reports
        # the closed round, as it always has.
        round_ = self._round(round_id)
        batch = decode_report_batch(payload)
        self._validate_batch(round_, batch)
        n = round_.shard.ingest(batch.reports)
        payload_bits = wire_bits(payload)
        round_.n_batches += 1
        round_.upload_bits += payload_bits
        self._upload_bits += payload_bits
        if self._m_batches is not None:
            self._m_batches.inc()
            self._m_upload_bits.inc(payload_bits)
            self._m_reports.inc(n)
        self._messages.append(
            Message(
                direction=MessageDirection.PARTY_TO_SERVER,
                party=batch.party,
                kind="report_batch",
                payload_bits=payload_bits,
                level=round_.level,
            )
        )
        return n

    def ingest_batch(self, round_id: int, batch: ReportBatch) -> int:
        """Encode a batch to wire bytes and ingest it (bytes always counted)."""
        return self.ingest(round_id, encode_report_batch(batch))

    @staticmethod
    def _validate_batch(round_: ServiceRound, batch: ReportBatch) -> None:
        if batch.party != round_.party:
            raise ServiceError(
                f"round {round_.round_id} belongs to party {round_.party!r}, "
                f"batch came from {batch.party!r}",
                code="party_mismatch",
            )
        if batch.level != round_.level:
            raise ServiceError(
                f"round {round_.round_id} runs level {round_.level}, "
                f"batch was produced for level {batch.level}",
                code="level_mismatch",
            )
        if batch.oracle_name != round_.oracle.name:
            raise ServiceError(
                f"round {round_.round_id} runs oracle {round_.oracle.name!r}, "
                f"batch was perturbed with {batch.oracle_name!r}",
                code="oracle_mismatch",
            )
        if batch.epsilon != round_.oracle.epsilon:
            raise ServiceError(
                f"round {round_.round_id} uses epsilon {round_.oracle.epsilon}, "
                f"batch reports epsilon {batch.epsilon}",
                code="epsilon_mismatch",
            )
        if batch.domain_size != round_.domain_size:
            raise ServiceError(
                f"round {round_.round_id} has domain size {round_.domain_size}, "
                f"batch was encoded over {batch.domain_size}",
                code="domain_mismatch",
            )

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def finalize_round(self, round_id: int) -> EstimationResult:
        """Close a round and estimate counts/frequencies from its shard.

        The estimation mirrors :meth:`repro.ldp.base.FrequencyOracle.run`
        operation-for-operation, so a streamed round finalises bit-identical
        to the in-memory computation over the same supports.  The round is
        released: a long-lived server only holds state for rounds still
        open.
        """
        round_ = self._close(round_id)
        shard = round_.shard
        return finalize_estimate(
            round_.oracle,
            shard.effective_counts(),
            shard.n_users,
            round_.domain_size,
            n_batches=round_.n_batches,
            upload_bits=round_.upload_bits,
            broadcast_bits=round_.broadcast_bits,
        )

    def export_shard(self, round_id: int) -> ExportedShardState:
        """Close a round and hand over its raw shard state, **unestimated**.

        The gateway half of every networked round close
        (``{"op": "export_shard"}`` on the wire): the round ends exactly
        like :meth:`finalize_round` — closed and released — but the
        exact int64 counts leave the server instead of an estimate, so
        the client can merge them (with other shards' states, in a
        cluster) and estimate once (:func:`estimate_exported`).
        """
        round_ = self._close(round_id)
        shard = round_.shard
        return ExportedShardState(
            party=round_.party,
            level=round_.level,
            oracle_name=round_.oracle.name,
            epsilon=round_.oracle.epsilon,
            domain_size=round_.domain_size,
            n_users=shard.n_users,
            n_batches=round_.n_batches,
            upload_bits=round_.upload_bits,
            broadcast_bits=round_.broadcast_bits,
            counts=np.asarray(shard.effective_counts(), dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def messages(self) -> list[Message]:
        """The wire messages logged so far (exact byte counts)."""
        return list(self._messages)

    def drain_messages(self) -> list[Message]:
        """Hand the logged messages to a transcript and reset the buffer.

        The log-rotation mechanism for long-lived servers: the running
        bit totals below survive a drain.
        """
        messages, self._messages = self._messages, []
        return messages

    def upload_bits(self) -> int:
        """Running total of client → server wire bits (drain-proof)."""
        return self._upload_bits

    def broadcast_bits(self) -> int:
        """Running total of server → client wire bits (drain-proof)."""
        return self._broadcast_bits


@dataclass
class ServiceRoundRunner(RoundRunner):
    """Routes an estimator's FO rounds through the aggregation service.

    Each round: the server broadcasts the candidate domain, a client pool
    perturbs the party's reports in bounded batches, every batch crosses
    the wire as real bytes, and the server's shard finalises into the
    round's estimates.  Plugged into
    :class:`~repro.core.estimation.PartyEstimator` by
    ``MechanismConfig(execution_mode="service")``.
    """

    server: AggregationServer = field(default_factory=AggregationServer)
    party: str = "party"
    batch_size: int = DEFAULT_REPORT_BATCH_SIZE

    def run_round(
        self,
        oracle: FrequencyOracle,
        values: np.ndarray,
        domain,
        rng,
        *,
        mode: str,
    ) -> EstimationResult:
        if mode != "per_user":
            raise ServiceError(
                "service execution streams individual privatized reports; "
                f"simulation mode {mode!r} has none (use per_user)",
                code="bad_mode",
            )
        round_id = self.server.open_round(
            party=self.party, level=domain.prefix_length, oracle=oracle, domain=domain
        )
        for batch in iter_perturbed_batches(
            oracle,
            values,
            domain.size,
            rng,
            batch_size=self.batch_size,
            party=self.party,
            level=domain.prefix_length,
        ):
            self.server.ingest_batch(round_id, batch)
        return self.server.finalize_round(round_id)


def run_in_service_mode(mechanism, dataset, rng=None):
    """Re-run any federated mechanism with service-mode execution.

    Convenience for examples/benchmarks: copies the mechanism's
    configuration with ``execution_mode="service"`` (forcing per-user
    reports) and runs it on ``dataset``.
    """
    config = mechanism.config.with_updates(
        # gateway=None: a network-mode config must convert too (the
        # bit-identity docs pitch comparing both paths on one mechanism),
        # and a gateway address is invalid outside network mode.
        execution_mode="service", simulation_mode="per_user", gateway=None
    )
    return type(mechanism)(config).run(dataset, rng)
