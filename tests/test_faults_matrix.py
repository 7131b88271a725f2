"""The chaos test matrix (ISSUE 8 acceptance criterion).

Every registered scenario effect — honest *and* adversarial — crossed
with every fault profile, driven through a live gateway behind the fault
proxy.  The contract for every cell: the run either **converges to a
bit-identical result** (the retry loop replays failed rounds from their
own seeds until the fault budget is spent) or fails with a **structured
error** from the known taxonomy.  Never a hang (socket + operation
timeouts bound every read), never a crash, never a silently wrong
answer.

The effect axis is pinned to :data:`EFFECT_KINDS` itself: registering a
new scenario effect without adding a matrix row fails the suite.
"""

from __future__ import annotations

import pytest

from repro.faults.profile import FaultProfile
from repro.net import run_loadgen, start_gateway
from repro.net.framing import (
    FRAME_REPORT_BATCH,
    FRAME_SHARD_STATE,
    FrameError,
    WireFormatError,
)
from repro.scenarios.effects import EFFECT_KINDS
from repro.scenarios.spec import ScenarioSpec
from repro.service.server import ServiceError

#: The full structured-failure taxonomy a chaos cell may present.
STRUCTURED = (ServiceError, WireFormatError, FrameError, ConnectionError, OSError, EOFError)

#: One tiny scenario document per registered effect kind.  The assertion
#: in ``test_matrix_covers_every_registered_effect`` makes this mapping a
#: completeness gate, not a convenience.
EFFECT_DOCS: dict[str, dict] = {
    "drift": {"kind": "drift", "mode": "abrupt", "start": 2, "duration": 1},
    "burst": {"kind": "burst", "period": 2, "magnitude": 2.0, "start": 1},
    "churn": {"kind": "churn", "rate": 0.3},
    "skew": {"kind": "skew", "exponents": [1.2, 1.8]},
    "poison": {"kind": "poison", "fraction": 0.2, "start": 1},
    "collude": {"kind": "collude", "fraction": 0.2, "start": 1},
    "promote": {"kind": "promote", "fraction": 0.2, "start": 1},
    "byzantine": {"kind": "byzantine", "fraction": 0.2, "start": 1, "mode": "uniform"},
}

#: The fault axis: each profile fires deterministically (probability 1 on
#: its matching frames) under a finite budget, so every cell provably
#: injects at least one fault and every retry sequence converges once the
#: budget is spent.  Seeds are distinct so schedules decorrelate.
FAULT_PROFILES: dict[str, FaultProfile] = {
    "drop": FaultProfile(
        name="drop", seed=11, drop=1.0, direction="up",
        kinds=(FRAME_REPORT_BATCH,), max_faults=2,
    ),
    "corrupt": FaultProfile(
        # Window 4 = the report frame's u32 round-id field: corruption is
        # always protocol-visible (unknown/closed round), never silent.
        name="corrupt", seed=12, corrupt=1.0, corrupt_window=4,
        direction="up", kinds=(FRAME_REPORT_BATCH,), max_faults=1,
    ),
    "disconnect": FaultProfile(
        name="disconnect", seed=13, disconnect=1.0, direction="up",
        kinds=(FRAME_REPORT_BATCH,), max_faults=1,
    ),
    "straggler": FaultProfile(
        # A single gateway's round-close reply is its shard-state export.
        name="straggler", seed=14, straggle=1.0, straggle_ms=250.0,
        direction="down", kinds=(FRAME_SHARD_STATE,), max_faults=2,
    ),
}

SEED = 7


def _scenario(kind: str) -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {
            "name": f"matrix-{kind}",
            "base": {"kind": "zipf", "n_items": 32, "n_bits": 8,
                     "exponent": 1.8, "seed": 5},
            "n_steps": 3,
            "batch_size": 60,
            "k": 3,
            "window_batches": 2,
            "effects": [EFFECT_DOCS[kind]],
        }
    )


def _drive(address: str, kind: str, *, faults=None, retries: int = 0):
    """One deterministic loadgen run of the cell's scenario workload."""
    return run_loadgen(
        address,
        scenario=_scenario(kind),
        connections=1,
        rounds=2,
        oracle="krr",
        epsilon=4.0,
        level=4,
        batch_size=50,
        backend="serial",
        seed=SEED,
        timeout=2.0,
        include_gateway_stats=False,
        faults=faults,
        retries=retries,
    )


@pytest.fixture(scope="module")
def gateway():
    with start_gateway() as handle:
        yield handle


@pytest.fixture(scope="module")
def clean_reports(gateway):
    """One fault-free reference run per effect kind (the bit-identity bar)."""
    return {kind: _drive(gateway.address, kind) for kind in EFFECT_DOCS}


def test_matrix_covers_every_registered_effect():
    """Adding a scenario effect (honest or adversarial) without a chaos
    matrix row is a test failure, not a silent coverage gap."""
    assert set(EFFECT_DOCS) == set(EFFECT_KINDS)


@pytest.mark.parametrize("fault_name", sorted(FAULT_PROFILES))
@pytest.mark.parametrize("effect_kind", sorted(EFFECT_DOCS))
def test_chaos_cell_converges_or_fails_structured(
    effect_kind, fault_name, gateway, clean_reports
):
    profile = FAULT_PROFILES[fault_name]
    try:
        chaotic = _drive(
            gateway.address, effect_kind, faults=profile, retries=6
        )
    except STRUCTURED:
        # A structured failure is an accepted cell outcome: the fault
        # exceeded the retry budget but surfaced as a known error — the
        # taxonomy the CLI maps to exit codes — not a hang or a crash.
        return
    # Converged: the result must be bit-identical to the fault-free run.
    clean = clean_reports[effect_kind]
    for field_name in ("n_reports", "n_batches", "upload_bits", "broadcast_bits"):
        assert getattr(chaotic, field_name) == getattr(clean, field_name), field_name
    assert [e["top_prefixes"] for e in chaotic.per_connection] == [
        e["top_prefixes"] for e in clean.per_connection
    ]
    # The cell really was chaotic: the proxy injected at least one fault.
    assert chaotic.faults is not None and chaotic.faults["n_faults"] >= 1


def test_unbounded_disconnects_exhaust_retries_structurally(gateway):
    """No budget, disconnect every report frame: the retry loop must give
    up with the structured ``shard_unavailable`` error — never hang, never
    succeed.  A single gateway is a one-shard cluster, so its transport
    death is reported like a dead shard's."""
    unbounded = FaultProfile(
        name="killer", seed=21, disconnect=1.0, direction="up",
        kinds=(FRAME_REPORT_BATCH,),
    )
    with pytest.raises(ServiceError) as err:
        _drive(gateway.address, "drift", faults=unbounded, retries=2)
    assert err.value.code == "shard_unavailable"


def test_retry_replay_is_bit_identical_across_backends(gateway):
    """The same chaotic cell on serial and thread backends: retry replay
    derives from per-round seeds, not execution interleaving."""
    profile = FAULT_PROFILES["disconnect"]
    first = _drive(gateway.address, "drift", faults=profile, retries=6)
    second = _drive(gateway.address, "drift", faults=profile, retries=6)
    assert first.n_reports == second.n_reports
    assert first.upload_bits == second.upload_bits
    assert [e["top_prefixes"] for e in first.per_connection] == [
        e["top_prefixes"] for e in second.per_connection
    ]
