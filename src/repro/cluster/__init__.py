"""Sharded gateway cluster: N shard gateways behind one coordinator.

The horizontal-scale layer over the networked service, and the only
networked client path — a single gateway is a one-shard cluster:
the :class:`~repro.cluster.ring.HashRing` deterministically assigns
candidate ranges and report batches to shards, the
:class:`~repro.cluster.coordinator.ClusterConnection` runs the round-close
barrier over N :class:`~repro.net.client.GatewayConnection`\\ s (collect
every shard's raw state, merge with the
:class:`~repro.service.shards.LevelShard` algebra, estimate once), the
:class:`~repro.cluster.coordinator.ClusterCoordinator` exposes the
aggregation-server protocol on top of it, and
:func:`~repro.cluster.launcher.launch_cluster` spawns/supervises the
shard processes.  Mechanisms reach it through
:func:`repro.net.run_over_network`.  The subsystem's invariant:
fixed-seed discovery over an N-shard cluster is **bit-identical** —
estimates, transcripts, exact wire-bit totals — to single-gateway and
in-memory service runs.
"""

from repro.cluster.coordinator import (
    ClusterConnection,
    ClusterCoordinator,
    parse_cluster_addresses,
)
from repro.cluster.launcher import ClusterHandle, LauncherError, launch_cluster
from repro.cluster.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ClusterConnection",
    "ClusterCoordinator",
    "ClusterHandle",
    "DEFAULT_VNODES",
    "HashRing",
    "LauncherError",
    "launch_cluster",
    "parse_cluster_addresses",
]
