"""Networked aggregation runtime: the service protocol over real sockets.

PR 2's service layer made every report batch and round broadcast travel as
canonical bytes — but inside one process.  This subsystem puts those same
bytes on TCP:

* :mod:`repro.net.framing` — typed, length-prefixed frames wrapping the
  service codecs unchanged, plus the lossless shard-state codec (every
  round closes by exporting its exact counts) and the structured
  error-frame mapping;
* :mod:`repro.net.gateway` — :class:`AggregationGateway`, an asyncio TCP
  front for an :class:`~repro.service.server.AggregationServer`, on one
  thread: every batch is the server's own ``ingest`` on the event loop,
  with credit-based per-connection pipelining and oversize-frame
  rejection;
  :func:`start_gateway` hosts it on a daemon thread for synchronous
  callers;
* :mod:`repro.net.client` — the synchronous :class:`GatewayConnection`
  (the per-shard transport), the ``HOST:PORT[,HOST:PORT...]`` address
  parsers, and :func:`run_over_network`, which serves a mechanism's rounds
  through :class:`~repro.cluster.coordinator.ClusterCoordinator` — one
  gateway is a one-shard cluster;
* :mod:`repro.net.loadgen` — :func:`run_loadgen`, the multiprocess load
  generator measuring throughput and batch-latency percentiles.

The headline invariant (``tests/test_net_equivalence.py``): for a fixed
seed, a discovery run over a live gateway is **bit-identical** — per-round
estimates and exact wire-bit totals — to
``MechanismConfig(execution_mode="service")``.  The network layer adds
transport, never semantics.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.net.client": ("GatewayConnection", "parse_address", "run_over_network"),
        "repro.net.framing": (
            "DEFAULT_MAX_FRAME_BYTES",
            "FRAME_BROADCAST_REQUEST",
            "FRAME_ERROR",
            "FRAME_REPORT_BATCH",
            "FRAME_ROUND_CONTROL",
            "FRAME_STATS",
            "Frame",
            "FrameError",
            "OversizeFrameError",
            "decode_metrics_frame",
            "encode_frame",
            "encode_metrics_frame",
            "error_to_exception",
            "exception_to_error",
            "split_frame_kind",
        ),
        "repro.net.gateway": (
            "AggregationGateway",
            "GatewayHandle",
            "run_gateway_forever",
            "start_gateway",
        ),
        "repro.net.loadgen": ("LoadgenReport", "run_loadgen"),
    },
)
