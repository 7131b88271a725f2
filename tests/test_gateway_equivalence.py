"""Live gateway ≡ in-process server: the same results, the same errors.

A gateway round is :meth:`AggregationServer.ingest` on each wire batch,
called on the gateway's event loop.  This module pins that it is
indistinguishable from an in-process ``AggregationServer``:

* in every observable of a round — estimates, support counts, the round
  runner's message transcript and exact wire-bit accounting — for every
  registered oracle, through both networked round closes:
  ``GatewayConnection.finalize`` (driven directly) and a one-shard
  ``ClusterConnection.finalize`` (through ``ClusterCoordinator``);
* in what each round accounts: the bits the round runner logs (the only
  transcript) equal the bits the in-process server, one gateway or a
  2-shard cluster counted for that round;
* in how a bad batch is refused: the exception type and structured code,
  for every header mismatch, an unusable ε, a closed or unknown round
  and a corrupt payload;
* in the bytes of its round close: the shard-state frame a gateway
  writes without copying the counts is, byte for byte, the codec's
  ``encode_frame(FRAME_SHARD_STATE, encode_shard_state_frame(...))`` of
  the in-process server's export.

CI runs this module as its own smoke step: a kernel regression that
breaks bit-identity fails here first, with the oracle named.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterConnection, ClusterCoordinator
from repro.federation.transcript import FederationTranscript
from repro.ldp import available_oracles, make_oracle
from repro.net import GatewayConnection, framing, start_gateway
from repro.service.clients import iter_perturbed_batches
from repro.service.protocol import (
    RoundBroadcast,
    WireFormatError,
    encode_report_batch,
    wire_bits,
)
from repro.service.server import AggregationServer, ServiceError, ServiceRoundRunner
from repro.trie.candidate_domain import CandidateDomain

N_BITS = 6
N_USERS = 700
BATCH_SIZE = 128
EPSILON = 3.0


def _domain() -> CandidateDomain:
    return CandidateDomain.full_domain(N_BITS, include_dummy=True)


def _items(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << N_BITS, size=N_USERS)


def _wire_batches(oracle_name: str) -> list[bytes]:
    """The canonical wire payloads of one deterministic report stream."""
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    domain = _domain()
    return [
        encode_report_batch(batch)
        for batch in iter_perturbed_batches(
            oracle, domain.encode_items(_items(), N_BITS), domain.size, rng=17,
            batch_size=BATCH_SIZE, party="party-a", level=domain.prefix_length,
        )
    ]


def _assert_results_identical(reference, candidate):
    """Every :class:`~repro.ldp.base.EstimationResult` field, bit for bit."""
    for name in ("support_counts", "estimated_counts", "estimated_frequencies"):
        got, expected = getattr(candidate, name), getattr(reference, name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
    for name in ("n_users", "domain_size", "oracle_name", "epsilon", "metadata"):
        assert getattr(candidate, name) == getattr(reference, name), name


# --------------------------------------------------------------------------- #
# Live gateway ≡ in-process server, through every networked round close
# --------------------------------------------------------------------------- #
def _run_round_over(server, oracle_name: str):
    """One fixed-seed round streamed by the round runner through anything
    with the server protocol: the estimate, the runner's transcript, and
    the wire bits that transcript logs up and down."""
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    runner = ServiceRoundRunner(server=server, party="party-a", batch_size=BATCH_SIZE)
    try:
        result = runner.run_round(
            oracle,
            _domain().encode_items(_items(), N_BITS),
            _domain(),
            17,
            mode="per_user",
        )
    finally:
        server.shutdown()
    log = FederationTranscript(messages=runner.drain_messages())
    transcript = [
        (m.direction, m.party, m.kind, m.payload_bits, m.level) for m in log.messages
    ]
    return result, transcript, log.upload_bits(), log.broadcast_bits()


def _run_round_over_gateway_connection(address: str, oracle_name: str):
    """The same round on a bare :class:`GatewayConnection`, closed by its
    own ``finalize``: the result and the wire bits it sent and was sent."""
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    domain = _domain()
    with GatewayConnection(address) as connection:
        round_id, down = connection.open_round(
            RoundBroadcast(
                party="party-a",
                level=N_BITS,
                oracle_name=oracle.name,
                epsilon=oracle.epsilon,
                domain_size=domain.size,
                prefixes=tuple(domain.prefixes),
            )
        )
        up = 0
        for payload in _wire_batches(oracle_name):
            connection.send_batch(round_id, payload)
            up += wire_bits(payload)
        return connection.finalize(round_id), up, down


@pytest.mark.parametrize("oracle_name", available_oracles())
def test_gateway_equals_in_process(oracle_name):
    server = AggregationServer()
    ref_result, ref_transcript, ref_up, ref_down = _run_round_over(server, oracle_name)
    # The runner logs exactly the bits the in-process server accounts.
    assert (ref_up, ref_down) == (server.upload_bits(), server.broadcast_bits())
    with start_gateway() as gateway:
        # A one-address ClusterCoordinator closes through
        # ClusterConnection.finalize; GatewayConnection.finalize is driven
        # directly, as the benchmark's ingest workload does.
        cluster = _run_round_over(
            ClusterCoordinator(ClusterConnection(gateway.address)), oracle_name
        )
        gateway_close = _run_round_over_gateway_connection(
            gateway.address, oracle_name
        )

    result, transcript, up, down = cluster
    _assert_results_identical(ref_result, result)
    assert transcript == ref_transcript
    # Exact wire bits: the gateway accounts exactly what crossed the network.
    assert (up, down) == (ref_up, ref_down)
    result, up, down = gateway_close
    _assert_results_identical(ref_result, result)
    assert (up, down) == (ref_up, ref_down)


# --------------------------------------------------------------------------- #
# The round runner's transcript ≡ what the servers themselves accounted
# --------------------------------------------------------------------------- #
#: Prefix lengths of the checked rounds: domains of 3, 65 and 513 slots.
LOG_LEVELS = (1, N_BITS, 9)


@pytest.fixture(scope="module")
def two_gateways():
    handles = [start_gateway() for _ in range(2)]
    yield handles
    for handle in handles:
        handle.close()


@pytest.mark.parametrize("topology", ["service", "gateway", "2-shard"])
@pytest.mark.parametrize("oracle_name", available_oracles())
def test_runner_log_matches_server_counts(oracle_name, topology, two_gateways):
    """Each round's runner-logged bits equal the bits its servers accounted
    (the estimate's metadata, which a gateway or shard cluster exports);
    in service mode the run's logged totals also equal the server's own
    running totals.  The runner is the only transcript, so this is the
    cross-check between the client's log and the servers' counts."""
    if topology == "service":
        server = AggregationServer()
    else:
        n_shards = 1 if topology == "gateway" else 2
        server = ClusterCoordinator(
            ClusterConnection([handle.address for handle in two_gateways[:n_shards]])
        )
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    runner = ServiceRoundRunner(server=server, party="party-a", batch_size=BATCH_SIZE)
    logged = FederationTranscript()
    try:
        for level in LOG_LEVELS:
            domain = CandidateDomain.full_domain(level, include_dummy=True)
            values = np.random.default_rng(level).integers(0, domain.size, size=N_USERS)
            estimate = runner.run_round(oracle, values, domain, level, mode="per_user")
            round_log = FederationTranscript(messages=runner.drain_messages())
            assert round_log.upload_bits() == estimate.metadata["upload_bits"]
            assert round_log.broadcast_bits() == estimate.metadata["broadcast_bits"]
            assert (
                len(round_log.messages_of_kind("report_batch"))
                == estimate.metadata["n_batches"]
            )
            logged.extend(round_log)
    finally:
        server.shutdown()
    assert len(logged.messages_of_kind("service_round_open")) == len(LOG_LEVELS)
    if topology == "service":
        assert logged.upload_bits() == server.upload_bits()
        assert logged.broadcast_bits() == server.broadcast_bits()


# --------------------------------------------------------------------------- #
# Live gateway ≡ in-process server, in how a bad batch is refused
# --------------------------------------------------------------------------- #
#: The refusing round: k-RR at ε=4 for party-a over the level-N_BITS domain.
ROUND_ORACLE, ROUND_EPSILON = "krr", 4.0


def _payload(oracle_name=ROUND_ORACLE, epsilon=ROUND_EPSILON, domain_size=None,
             header=None) -> bytes:
    """One honestly perturbed batch, its ``header`` fields then overwritten
    (how a batch declaring an ε no oracle accepts gets onto the wire)."""
    domain_size = _domain().size if domain_size is None else domain_size
    oracle = make_oracle(oracle_name, epsilon=epsilon)
    (batch,) = iter_perturbed_batches(
        oracle, np.arange(8) % domain_size, domain_size, 0,
        batch_size=8, party="party-a", level=N_BITS,
    )
    return encode_report_batch(dataclasses.replace(batch, **(header or {})))


#: case → (payload, close the round first, round-id offset, expected
#: exception type, expected ServiceError code).
BAD_BATCHES = {
    "party": (lambda: _payload(header={"party": "mallory"}), False, 0,
              ServiceError, "party_mismatch"),
    "level": (lambda: _payload(header={"level": N_BITS + 1}), False, 0,
              ServiceError, "level_mismatch"),
    "oracle": (lambda: _payload(oracle_name="oue"), False, 0,
               ServiceError, "oracle_mismatch"),
    "epsilon": (lambda: _payload(epsilon=2.0), False, 0,
                ServiceError, "epsilon_mismatch"),
    "domain": (lambda: _payload(domain_size=2 * _domain().size), False, 0,
               ServiceError, "domain_mismatch"),
    "epsilon_negative": (lambda: _payload(header={"epsilon": -1.0}), False, 0,
                         ServiceError, "epsilon_mismatch"),
    "epsilon_zero": (lambda: _payload(header={"epsilon": 0.0}), False, 0,
                     ServiceError, "epsilon_mismatch"),
    "closed_round": (_payload, True, 0, ServiceError, "round_closed"),
    "unknown_round": (_payload, False, 10_000, ServiceError, "unknown_round"),
    "corrupt_payload": (lambda: b"GARBAGE BYTES", False, 0, WireFormatError, None),
}


@pytest.fixture(scope="module")
def gateway():
    with start_gateway() as handle:
        yield handle


@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
def test_gateway_refuses_a_bad_batch_like_the_in_process_server(gateway, case):
    make_payload, close_first, offset, expected_type, expected_code = BAD_BATCHES[case]
    payload = make_payload()
    oracle = make_oracle(ROUND_ORACLE, epsilon=ROUND_EPSILON)
    domain = _domain()

    server = AggregationServer()
    round_id = server.open_round(
        party="party-a", level=N_BITS, oracle=oracle, domain=domain
    )
    if close_first:
        server.finalize_round(round_id)
    with pytest.raises(Exception) as local:
        server.ingest(round_id + offset, payload)

    with GatewayConnection(gateway.address) as connection:
        round_id, _ = connection.open_round(
            RoundBroadcast(
                party="party-a",
                level=N_BITS,
                oracle_name=oracle.name,
                epsilon=oracle.epsilon,
                domain_size=domain.size,
                prefixes=tuple(domain.prefixes),
            )
        )
        if close_first:
            connection.finalize(round_id)
        connection.send_batch(round_id + offset, payload)
        with pytest.raises(Exception) as remote:
            connection.drain()

    assert type(local.value) is expected_type
    assert getattr(local.value, "code", None) == expected_code
    assert type(remote.value) is type(local.value)
    assert getattr(remote.value, "code", None) == getattr(local.value, "code", None)


# --------------------------------------------------------------------------- #
# Live gateway ≡ the shard-state codec, in the bytes of a round close
# --------------------------------------------------------------------------- #
#: Level 14: 16,385 int64 counts, 131,080 B, past glibc's 128 KiB mmap
#: threshold (the size the gateway's copy-free close exists for).
CLOSE_LEVEL = 14


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_gateway_close_writes_the_codec_bytes(gateway, traced):
    oracle = make_oracle(ROUND_ORACLE, epsilon=ROUND_EPSILON)
    domain = CandidateDomain.full_domain(CLOSE_LEVEL, include_dummy=True)
    items = np.random.default_rng(3).integers(0, 1 << CLOSE_LEVEL, size=5_000)
    payloads = [
        encode_report_batch(batch)
        for batch in iter_perturbed_batches(
            oracle, domain.encode_items(items, CLOSE_LEVEL), domain.size, rng=11,
            batch_size=1_000, party="party-a", level=domain.prefix_length,
        )
    ]

    server = AggregationServer()
    local_id = server.open_round(
        party="party-a", level=CLOSE_LEVEL, oracle=oracle, domain=domain
    )
    for payload in payloads:
        server.ingest(local_id, payload)
    state = server.export_shard(local_id)

    with GatewayConnection(gateway.address) as connection:
        round_id, _ = connection.open_round(
            RoundBroadcast(
                party="party-a",
                level=CLOSE_LEVEL,
                oracle_name=oracle.name,
                epsilon=oracle.epsilon,
                domain_size=domain.size,
                prefixes=tuple(domain.prefixes),
            )
        )
        for payload in payloads:
            connection.send_batch(round_id, payload)
        connection.drain()
        connection._send(
            framing.FRAME_ROUND_CONTROL,
            framing.encode_control({"op": "export_shard", "round_id": round_id}),
            trace=bytes(range(framing.TRACE_CONTEXT_SIZE)) if traced else None,
        )
        header = connection._read_exact(framing.FRAME_HEADER_SIZE)
        length, _ = framing.parse_frame_header(header)
        sent = header + connection._read_exact(length)

    assert state.counts.nbytes > 128 * 1024
    expected = framing.encode_frame(
        framing.FRAME_SHARD_STATE, framing.encode_shard_state_frame(round_id, state)
    )
    assert sent == expected
