"""Online aggregation service: streamed reports, sharded accumulators.

The batch simulations materialise every user's report for a level at once,
capping the population at whatever an ``(n_users, domain_size)`` matrix fits
in RAM.  This subsystem replaces that with a message-driven pipeline whose
server memory is ``O(domain_size)``:

* :mod:`repro.service.clients` — :class:`ClientPool` draws users from a
  party/dataset and emits privatized report batches of bounded size;
* :mod:`repro.service.protocol` — canonical byte codecs for report batches
  and round broadcasts; exact wire sizes feed the federation transcript;
* :mod:`repro.service.shards` — mergeable per-level support-count
  accumulators (associative :meth:`~shards.LevelShard.merge`); every
  batch folds in as its ``support_counts`` vector;
* :mod:`repro.service.server` — :class:`AggregationServer` round lifecycle
  (the network gateway embeds one and calls its ``ingest`` on every wire
  batch) plus :class:`ServiceRoundRunner`, the one loop that streams a
  round and logs its wire messages, and the estimation-seam adapter that
  turns ``MechanismConfig(execution_mode="service")`` into end-to-end
  streamed TAP/TAPS runs;
* :mod:`repro.service.streaming` — sliding-window re-discovery for
  continual heavy-hitter tracking;
* :mod:`repro.service.harness` — :func:`serve_dataset`, the programmatic
  serve harness behind ``repro serve`` (server + per-party client pools +
  per-round wire-bit reports in one call).

Determinism contract: for a fixed seed, a service run is bit-identical to the in-memory run with the same report batching
(``tests/test_service_equivalence.py``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.clients": ("ClientPool", "iter_perturbed_batches"),
        "repro.service.harness": ("RoundReport", "ServeReport", "serve_dataset"),
        "repro.service.protocol": (
            "REPORT_CODECS",
            "ReportBatch",
            "RoundBroadcast",
            "WireFormatError",
            "decode_broadcast",
            "decode_report_batch",
            "encode_broadcast",
            "encode_report_batch",
            "wire_bits",
        ),
        "repro.service.server": (
            "SERVICE_ERROR_CODES",
            "AggregationServer",
            "ServiceError",
            "ServiceRound",
            "ServiceRoundRunner",
            "run_in_service_mode",
        ),
        "repro.service.shards": ("LevelShard", "ShardError"),
        "repro.service.streaming": ("SlidingWindowDiscovery", "WindowSnapshot"),
    },
)
