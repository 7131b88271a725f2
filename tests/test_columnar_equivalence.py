"""Columnar decode path ≡ in-process reference, bit for bit.

The columnar hot path (engine workers summarise wire batches into
``O(domain)`` count vectors, :mod:`repro.service.columnar`) must be
indistinguishable from the reference decode-then-ingest path
(``AggregationServer.ingest``) in every observable: estimates, support
counts, message transcripts, and exact wire-bit accounting.  This module
pins that equivalence

* in memory (``AggregationServer.ingest`` vs ``summarize`` +
  ``ingest_summary``), for every registered oracle,
* over a **live TCP gateway** against an in-process
  ``AggregationServer``, for every registered oracle, on the serial and
  thread decode backends, through both networked round closes:
  ``GatewayConnection.finalize`` (driven directly) and a one-shard
  ``ClusterConnection.finalize`` (through ``ClusterCoordinator``).

CI runs this module as its own smoke step: a kernel regression that
breaks bit-identity fails here first, with the oracle named.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.ldp import available_oracles, make_oracle
from repro.net import GatewayConnection, start_gateway
from repro.service.clients import ClientPool
from repro.service.columnar import BatchSummary, summarize_report_payload
from repro.service.protocol import RoundBroadcast, encode_report_batch, wire_bits
from repro.service.server import AggregationServer
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
    pool = ClientPool(_items(), name="party-a", batch_size=BATCH_SIZE)
    return [
        encode_report_batch(batch)
        for batch in pool.iter_report_batches(oracle, _domain(), N_BITS, rng=17)
    ]


def _assert_results_identical(reference, candidate):
    """Every :class:`~repro.ldp.base.EstimationResult` field, bit for bit."""
    for name in ("support_counts", "estimated_counts", "estimated_frequencies"):
        got, expected = getattr(candidate, name), getattr(reference, name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
    for name in ("n_users", "domain_size", "oracle_name", "epsilon", "metadata"):
        assert getattr(candidate, name) == getattr(reference, name), name


def _transcript(server_or_remote):
    return [
        (m.direction, m.party, m.kind, m.payload_bits, m.level)
        for m in server_or_remote.messages
    ]


# --------------------------------------------------------------------------- #
# In-memory: ingest ≡ summarize + ingest_summary
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("oracle_name", available_oracles())
def test_summary_ingest_is_bit_identical_in_memory(oracle_name):
    payloads = _wire_batches(oracle_name)
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    domain = _domain()

    reference = AggregationServer()
    ref_round = reference.open_round(
        party="party-a", level=N_BITS, oracle=oracle, domain=domain
    )
    columnar = AggregationServer()
    col_round = columnar.open_round(
        party="party-a", level=N_BITS, oracle=oracle, domain=domain
    )

    for payload in payloads:
        n_ref = reference.ingest(ref_round, payload)
        summary = summarize_report_payload(payload)
        assert isinstance(summary, BatchSummary)
        n_col = columnar.ingest_summary(
            col_round, summary, payload_bits=wire_bits(payload)
        )
        assert n_col == n_ref

    _assert_results_identical(
        reference.finalize_round(ref_round), columnar.finalize_round(col_round)
    )
    assert columnar.upload_bits() == reference.upload_bits()
    assert columnar.broadcast_bits() == reference.broadcast_bits()
    assert _transcript(columnar) == _transcript(reference)


@pytest.mark.parametrize("oracle_name", available_oracles())
def test_summary_counts_equal_decoded_support_counts(oracle_name):
    """Worker-side invariant: a summary IS the batch's support counts."""
    from repro.service.protocol import decode_report_batch

    for payload in _wire_batches(oracle_name):
        batch = decode_report_batch(payload)
        summary = summarize_report_payload(payload)
        oracle = make_oracle(oracle_name, epsilon=EPSILON)
        np.testing.assert_array_equal(
            summary.counts,
            np.asarray(
                oracle.support_counts(batch.reports, batch.domain_size),
                dtype=np.int64,
            ),
        )
        assert summary.n_users == batch.n_users
        assert summary.party == batch.party
        assert summary.oracle_name == batch.oracle_name


# --------------------------------------------------------------------------- #
# Live gateway ≡ in-process server, through every networked round close
# --------------------------------------------------------------------------- #
def _run_round_over(server, oracle_name: str):
    """One fixed-seed round through anything with the server protocol."""
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    try:
        round_id = server.open_round(
            party="party-a", level=N_BITS, oracle=oracle, domain=_domain()
        )
        pool = ClientPool(_items(), name="party-a", batch_size=BATCH_SIZE)
        for batch in pool.iter_report_batches(oracle, _domain(), N_BITS, rng=17):
            server.ingest_batch(round_id, batch)
        result = server.finalize_round(round_id)
        return result, _transcript(server), server.upload_bits(), server.broadcast_bits()
    finally:
        server.shutdown()


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


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("oracle_name", available_oracles())
def test_gateway_columnar_equals_in_process(oracle_name, backend):
    ref_result, ref_transcript, ref_up, ref_down = _run_round_over(
        AggregationServer(), oracle_name
    )
    workers = 2 if backend == "thread" else None
    with start_gateway(decode_backend=backend, decode_workers=workers) as gateway:
        # A one-address ClusterCoordinator closes through
        # ClusterConnection.finalize; GatewayConnection.finalize is driven
        # directly, as the benchmark's ingest workload does.
        cluster = _run_round_over(ClusterCoordinator(gateway.address), oracle_name)
        gateway_close = _run_round_over_gateway_connection(
            gateway.address, oracle_name
        )

    result, transcript, up, down = cluster
    _assert_results_identical(ref_result, result)
    assert transcript == ref_transcript
    # Exact wire bits: the columnar path changes what the gateway's
    # *workers* do, never what crosses the network.
    assert (up, down) == (ref_up, ref_down)
    result, up, down = gateway_close
    _assert_results_identical(ref_result, result)
    assert (up, down) == (ref_up, ref_down)
