"""A dependency-free, thread-safe metrics registry with mergeable snapshots.

Three instrument kinds, deliberately minimal:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Gauge` — a float that can move both ways (live connections);
* :class:`Histogram` — fixed **log2 buckets**: an observation ``v`` lands
  in the bucket of exponent ``e`` with ``2^(e-1) <= v < 2^e``.  Bucket
  counts are exact integers, so two histograms merge with the *same
  algebra as shards*: bucket-wise integer addition, which is associative,
  commutative, and loss-free.  ``merge(observe(A), observe(B)) ==
  observe(A + B)`` exactly — the property
  ``tests/test_obs_registry.py`` pins with hypothesis.

Instruments are keyed by ``name{label=value,...}`` with sorted labels, so
:meth:`MetricsRegistry.snapshot` is deterministic: the same per-instrument
observation sequences — however updates interleave *across* instruments,
and in whatever order instruments were created — encode to byte-identical
:func:`encode_snapshot` output.  (Integer fields are interleaving-proof
outright; a histogram's float ``sum`` follows its own observation order.)

The registry is observe-only by design: nothing here reads a clock, an
RNG, or global state, so enabling telemetry cannot perturb a fixed-seed
run.  The percentile helpers at the bottom (:func:`quantiles`,
:func:`latency_summary`) are the one shared home of the p50/p95/p99 math
the load generator, the perf controller, and the throughput benchmarks
previously each carried privately.
"""

from __future__ import annotations

import json
import math
import threading

#: Schema tag every wire-scraped metrics document carries.
METRICS_SCHEMA = "repro.metrics/1"

#: Log2 bucket exponents are clamped to this closed range: the smallest
#: bucket covers values below 2^MIN_EXP (sub-millisecond when observing
#: milliseconds), the largest everything from 2^(MAX_EXP-1) up.
MIN_EXP = -10
MAX_EXP = 31

#: Bucket for observations <= 0 (and NaN): outside any log2 bucket but
#: still counted, so ``count == sum(buckets.values())`` always holds.
UNDERFLOW_EXP = MIN_EXP - 1


def bucket_exponent(value: float) -> int:
    """The log2 bucket exponent ``e`` of ``value``: ``2^(e-1) <= v < 2^e``.

    Non-positive and NaN observations land in :data:`UNDERFLOW_EXP`;
    exponents clamp to ``[MIN_EXP, MAX_EXP]`` so the bucket set is fixed
    and two histograms always share one bucket universe.
    """
    v = float(value)
    if not v > 0.0:  # catches <= 0 and NaN in one comparison
        return UNDERFLOW_EXP
    _, exp = math.frexp(v)  # v = m * 2^exp with 0.5 <= m < 1
    return min(max(exp, MIN_EXP), MAX_EXP)


def bucket_bounds(exponent: int) -> tuple[float, float]:
    """``(low, high)`` value range of a bucket, for quantile interpolation."""
    e = int(exponent)
    if e <= UNDERFLOW_EXP:
        return (0.0, 0.0)
    low = 0.0 if e == MIN_EXP else math.ldexp(1.0, e - 1)
    return (low, math.ldexp(1.0, e))


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += int(n)

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A float instrument that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += float(n)

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= float(n)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed log2-bucket histogram with exact, shard-style merge."""

    __slots__ = ("_lock", "count", "sum", "min", "max", "buckets")

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        v = float(value)
        e = bucket_exponent(v)
        with self._lock:
            self.count += 1
            self.sum += v
            if self.min is None or v < self.min:
                self.min = v
            if self.max is None or v > self.max:
                self.max = v
            self.buckets[e] = self.buckets.get(e, 0) + 1

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "buckets": {str(e): self.buckets[e] for e in sorted(self.buckets)},
            }


def _render_key(name: str, labels: dict) -> str:
    if not labels:
        return str(name)
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create instrument registry keyed by ``name{labels}``.

    Thread- and asyncio-safe: instrument creation takes the registry
    lock, each instrument serialises its own updates.  Instruments are
    cheap to pre-bind (``frames = registry.counter("frames_total",
    kind="report_batch")``) so hot paths pay one ``inc()`` — no dict
    lookup, no string rendering.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = _render_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
            return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = _render_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
            return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        key = _render_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram()
            return instrument

    def snapshot(self) -> dict:
        """Deterministic, JSON-safe view of every instrument.

        Keys are sorted, histogram buckets are sorted by exponent; the
        same set of observations — in any thread interleaving — encodes
        to the same bytes under :func:`encode_snapshot`.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: counters[k].value for k in sorted(counters)},
            "gauges": {k: gauges[k].value for k in sorted(gauges)},
            "histograms": {k: histograms[k].to_dict() for k in sorted(histograms)},
        }


def encode_snapshot(snapshot: dict) -> bytes:
    """Canonical JSON bytes of a snapshot (byte-stable across processes)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")).encode("utf-8")


def merge_snapshots(*snapshots: dict) -> dict:
    """Merge snapshots with the shard algebra: exact integer addition.

    Counters and histogram bucket counts add; gauges keep the last
    non-missing value (a merged gauge has no single truth — the per-shard
    values remain in the per-shard snapshots); histogram ``sum`` adds as
    floats, ``min``/``max`` combine.  ``merge(snap(A), snap(B))`` equals
    the snapshot of one registry that observed A then B, exactly for all
    integer fields.
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0) + int(value)
        for key, value in snapshot.get("gauges", {}).items():
            merged["gauges"][key] = float(value)
        for key, hist in snapshot.get("histograms", {}).items():
            base = merged["histograms"].get(key)
            if base is None:
                merged["histograms"][key] = {
                    "count": int(hist["count"]),
                    "sum": float(hist["sum"]),
                    "min": hist["min"],
                    "max": hist["max"],
                    "buckets": {str(e): int(n) for e, n in hist["buckets"].items()},
                }
                continue
            base["count"] += int(hist["count"])
            base["sum"] += float(hist["sum"])
            for bound, pick in (("min", min), ("max", max)):
                if hist[bound] is not None:
                    base[bound] = (
                        hist[bound]
                        if base[bound] is None
                        else pick(base[bound], hist[bound])
                    )
            for e, n in hist["buckets"].items():
                base["buckets"][str(e)] = base["buckets"].get(str(e), 0) + int(n)
    for hist in merged["histograms"].values():
        hist["buckets"] = {str(e): hist["buckets"][str(e)]
                           for e in sorted(int(k) for k in hist["buckets"])}
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    return merged


def histogram_quantile(hist: dict, q: float) -> float:
    """Estimate the ``q``-quantile (0..1) from a histogram snapshot.

    Linear interpolation inside the target log2 bucket, clamped to the
    histogram's observed ``min``/``max`` — bucket-resolution accuracy, by
    construction within a factor of 2 of the true value.
    """
    count = int(hist.get("count", 0))
    if count == 0:
        return 0.0
    rank = max(0.0, min(1.0, float(q))) * count
    cumulative = 0
    exponents = sorted(int(e) for e in hist["buckets"])
    for e in exponents:
        n = int(hist["buckets"][str(e)])
        if cumulative + n >= rank and n > 0:
            low, high = bucket_bounds(e)
            fraction = (rank - cumulative) / n
            value = low + fraction * (high - low)
            break
        cumulative += n
    else:  # pragma: no cover - count always equals sum of buckets
        value = hist["max"] if hist["max"] is not None else 0.0
    if hist.get("min") is not None:
        value = max(value, float(hist["min"]))
    if hist.get("max") is not None:
        value = min(value, float(hist["max"]))
    return float(value)


def validate_metrics_document(document: dict) -> dict:
    """Schema-check one wire-scraped metrics document; returns it.

    A document is ``{"schema": repro.metrics/1, "source": ..., "metrics":
    <registry snapshot>}`` plus free-form extras (gateway stats, shard
    list).  Raises :class:`ValueError` naming the violation — the check
    ``repro stats`` and the CI scrape assertions run on every snapshot.
    """
    if not isinstance(document, dict):
        raise ValueError(f"metrics document must be a mapping, got {type(document).__name__}")
    schema = document.get("schema")
    if schema != METRICS_SCHEMA:
        raise ValueError(f"metrics schema is {schema!r}, expected {METRICS_SCHEMA!r}")
    if not document.get("source"):
        raise ValueError("metrics document misses its 'source'")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("metrics document misses its 'metrics' snapshot")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            raise ValueError(f"metrics snapshot misses its {section!r} section")
    for key, value in metrics["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"counter {key!r} must be an integer, got {value!r}")
    for key, hist in metrics["histograms"].items():
        for field in ("count", "sum", "min", "max", "buckets"):
            if field not in hist:
                raise ValueError(f"histogram {key!r} misses its {field!r} field")
        if not isinstance(hist["buckets"], dict):
            raise ValueError(f"histogram {key!r} buckets must be a mapping")
        if sum(int(n) for n in hist["buckets"].values()) != int(hist["count"]):
            raise ValueError(f"histogram {key!r} bucket counts do not sum to count")
    return document


# --------------------------------------------------------------------------- #
# Shared percentile helpers (the one home of the p50/p95/p99 math)
# --------------------------------------------------------------------------- #
def quantiles(values, percentiles) -> list[float]:
    """``np.percentile`` as plain floats — the shared percentile kernel.

    ``percentiles`` are in percent (50.0, 95.0, ...).  One call computes
    all of them, which is bit-identical to separate ``np.percentile``
    calls (same linear interpolation on the same sorted data).
    """
    import numpy as np

    result = np.percentile(np.asarray(values, dtype=np.float64), list(percentiles))
    return [float(v) for v in np.atleast_1d(result)]


def latency_summary(latencies_s) -> dict:
    """p50/p95/p99/mean/max of batch latencies (seconds in, ms out).

    The exact summary the load generator has always reported; moved here
    so the loadgen report, the throughput benchmarks, and the perf
    controller share one implementation.
    """
    if not latencies_s:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    import numpy as np

    ms = np.asarray(latencies_s, dtype=np.float64) * 1e3
    p50, p95, p99 = quantiles(ms, (50.0, 95.0, 99.0))
    return {
        "count": int(ms.size),
        "p50": round(p50, 3),
        "p95": round(p95, 3),
        "p99": round(p99, 3),
        "mean": round(float(ms.mean()), 3),
        "max": round(float(ms.max()), 3),
    }
