"""The network-mode invariant (the tentpole's acceptance criterion):

For a fixed seed, a discovery run served by a **live TCP gateway** is
bit-identical — per-round estimates, per-message transcript, and exact
wire-bit totals — to ``execution_mode="service"``, for TAP (k-RR), an
OLH-decoding mechanism and the FedPEM and GTF baselines.  The network
layer adds transport, never semantics.
"""

from __future__ import annotations

import pytest

from repro.baselines.fedpem import FedPEMMechanism
from repro.baselines.gtf import GTFMechanism
from repro.core.config import MechanismConfig
from repro.core.tap import TAPMechanism
from repro.core.taps import TAPSMechanism
from repro.net import run_over_network, start_gateway
from repro.service.server import run_in_service_mode


@pytest.fixture(scope="module")
def gateway():
    with start_gateway() as handle:
        yield handle


def _config(dataset, **overrides) -> MechanismConfig:
    base = dict(
        k=5,
        epsilon=4.0,
        n_bits=dataset.n_bits,
        granularity=5,
        simulation_mode="per_user",
        report_batch_size=64,
    )
    base.update(overrides)
    return MechanismConfig(**base)


def _assert_bit_identical(service, network):
    assert network.heavy_hitters == service.heavy_hitters
    assert network.estimated_counts == service.estimated_counts
    assert set(network.party_records) == set(service.party_records)
    for name, svc_record in service.party_records.items():
        net_record = network.party_records[name]
        assert net_record.local_heavy_hitters == svc_record.local_heavy_hitters
        # LevelEstimate is a dataclass: == compares every field, including
        # the float count/frequency dicts, exactly.
        assert net_record.levels == svc_record.levels
    assert network.accountant.blocks == service.accountant.blocks
    # Exact wire accounting, message for message.
    assert [
        (m.direction, m.party, m.kind, m.payload_bits, m.level)
        for m in network.transcript.messages
    ] == [
        (m.direction, m.party, m.kind, m.payload_bits, m.level)
        for m in service.transcript.messages
    ]
    assert network.transcript.bits_by_kind() == service.transcript.bits_by_kind()


#: (mechanism, oracle): TAP over k-RR plus an OLH-decoding mechanism —
#: OLH exercises the gateway's full candidate-scan decode end to end —
#: and the two baselines' party loops, FedPEM over OUE's packed unary
#: reports and GTF (k-RR whatever the config says).
CASES = [
    (TAPMechanism, "krr"),
    (TAPSMechanism, "olh"),
    (FedPEMMechanism, "oue"),
    (GTFMechanism, "krr"),
]


@pytest.mark.parametrize("mechanism_cls,oracle", CASES)
class TestNetworkModeBitIdentical:
    def test_discovery_over_live_gateway(
        self, mechanism_cls, oracle, gateway, two_party_dataset
    ):
        config = _config(two_party_dataset, oracle=oracle)
        mechanism = mechanism_cls(config)
        service = run_in_service_mode(mechanism, two_party_dataset, rng=123)
        network = run_over_network(
            mechanism, two_party_dataset, gateway.address, rng=123
        )
        _assert_bit_identical(service, network)


class TestNetworkModeSurface:
    def test_network_mode_requires_a_gateway_address(self, two_party_dataset):
        with pytest.raises(ValueError, match="gateway"):
            _config(two_party_dataset, execution_mode="network")

    def test_sweeps_reject_network_mode_up_front(self):
        """Grids have no gateway to connect cells to; fail at validation,
        not mid-sweep — on the settings field and on every overrides back
        door (spec block, make_config call)."""
        from repro.experiments.runner import ExperimentSettings, make_config
        from repro.experiments.spec import SpecError, SweepSpec

        with pytest.raises(ValueError, match="loadgen"):
            ExperimentSettings(execution_mode="network")
        with pytest.raises(SpecError, match="config_overrides"):
            SweepSpec.from_dict(
                {
                    "config_overrides": {
                        "execution_mode": "network",
                        "gateway": "127.0.0.1:9",
                        "simulation_mode": "per_user",
                    }
                }
            )
        with pytest.raises(SpecError, match="config_overrides"):
            # A bare gateway override is just as networked.
            SweepSpec.from_dict({"config_overrides": {"gateway": "127.0.0.1:9"}})
        from repro.datasets.registry import load_dataset

        dataset = load_dataset("rdb", scale="tiny", seed=0)
        with pytest.raises(ValueError, match="loadgen"):
            make_config(
                ExperimentSettings(), dataset, k=5, epsilon=4.0,
                execution_mode="network", gateway="127.0.0.1:9",
                simulation_mode="per_user",
            )

    def test_service_mode_conversion_accepts_network_configs(
        self, gateway, two_party_dataset
    ):
        """run_in_service_mode must convert a network-mode mechanism (the
        comparison direction the bit-identity docs pitch)."""
        config = _config(two_party_dataset).with_updates(
            execution_mode="network", gateway=gateway.address
        )
        service = run_in_service_mode(
            TAPMechanism(config), two_party_dataset, rng=5
        )
        network = TAPMechanism(config).run(two_party_dataset, rng=5)
        _assert_bit_identical(service, network)

    def test_network_mode_requires_per_user(self, two_party_dataset):
        with pytest.raises(ValueError, match="per_user"):
            MechanismConfig(
                k=5, epsilon=4.0, n_bits=10, granularity=5,
                execution_mode="network", gateway="127.0.0.1:1",
            )

    def test_exact_wire_accounting_lands_in_the_transcript(
        self, gateway, two_party_dataset
    ):
        config = _config(two_party_dataset)
        network = run_over_network(
            TAPMechanism(config), two_party_dataset, gateway.address, rng=7
        )
        batches = network.transcript.messages_of_kind("report_batch")
        opens = network.transcript.messages_of_kind("service_round_open")
        assert batches and opens
        assert all(m.payload_bits > 0 for m in batches + opens)
        assert len(opens) == config.granularity * two_party_dataset.n_parties

    def test_gateway_saw_exactly_the_transcripted_bits(self, two_party_dataset):
        """Client-side accounting equals the gateway's own totals."""
        from repro.net.client import GatewayConnection

        with start_gateway() as fresh:
            config = _config(two_party_dataset)
            network = run_over_network(
                TAPMechanism(config), two_party_dataset, fresh.address, rng=11
            )
            with GatewayConnection(fresh.address) as probe:
                stats = probe.stats()
        bits_by_kind = network.transcript.bits_by_kind()
        assert stats["upload_bits"] == bits_by_kind["report_batch"]
        assert stats["broadcast_bits"] == bits_by_kind["service_round_open"]
