"""Spans recorded around calls into the program's layers (traced runs only).

The program is not modified: :func:`instrument` replaces public functions
and methods of each layer with wrappers that time every call, note its
parent (the innermost wrapped call still running), and update the layer
counters.  The benchmark process is single-threaded, so a call stack
gives exact nesting and a layer's self time is each span's duration
minus the time its child spans cover.  Spans stay in memory and are
written out once the run ends.  Gateway-side work happens in another
process and is not spanned; it shows in the scraped gateway counters and
the gateway's busy share.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from repro.cluster import coordinator
from repro.core import estimation, taps
from repro.ldp.base import FrequencyOracle
from repro.ldp.budget import PrivacyAccountant
from repro.ldp.krr import KRandomizedResponse
from repro.ldp.olh import OptimizedLocalHashing
from repro.ldp.unary import UnaryEncodingOracle
from repro.net import client
from repro.service import protocol, server
from repro.trie.candidate_domain import CandidateDomain


@dataclass
class Span:
    name: str
    #: ``layer.stage`` whose self time this span counts toward.
    stage: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Installs call wrappers and keeps their spans, counts and samples."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, stage: str, *, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`restore`.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(recorder, span, args, result, entry)``, which records the
        layer's counts once the call returns.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._spanned(raw.__func__, attr, stage, before, after))
        else:
            new = self._spanned(raw, attr, stage, before, after)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _spanned(self, fn, name, stage, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = before(args) if before is not None else None
            parent = stack[-1] if stack else None
            span = Span(name, stage, time.perf_counter(), parent=parent)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.duration
            if after is not None:
                after(self, span, args, result, entry)
            return result

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Per stage: span time not covered by child spans."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.stage] += span.duration - span.child_s
        return out

    def p50_ms(self, key: str) -> float:
        values = self.samples.get(key)
        return statistics.median(values) * 1e3 if values else 0.0

    def records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


# ---------------------------------------------------------------------- #
# Counters recorded after a wrapped call returns
# ---------------------------------------------------------------------- #
def _count_reports(rec, span, args, result, entry):
    rec.counts["ldp.reports"] += len(args[1])


def _count_round(rec, span, args, result, entry):
    rec.counts["core.rounds"] += 1
    rec.counts["core.candidates"] += args[2].n_candidates


def _count_prune(rec, span, args, result, entry):
    candidates = args[0]
    rec.counts["core.prune_proposed"] += candidates.n_pairs
    rec.counts["core.prune_kept"] += len(result)


def _count_batch(rec, span, args, result, entry):
    rec.counts["service.batches"] += 1


def _sample(key):
    def after(rec, span, args, result, entry):
        rec.samples[key].append(span.duration)
    return after


def _credits_exhausted(args):
    conn = args[0]
    return conn.outstanding >= conn.credits


def _send(rec, span, args, result, entry):
    rec.counts["net.bytes_up"] += len(args[2])
    if entry:
        rec.counts["net.credit_stall_s"] += span.duration


def _export(rec, span, args, result, entry):
    rec.samples["net.finalize"].append(span.duration)
    rec.counts["cluster.export_bytes"] += result.counts.nbytes


def instrument(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    for cls in (KRandomizedResponse, UnaryEncodingOracle, OptimizedLocalHashing):
        rec.wrap(cls, "perturb", "ldp.perturb", after=_count_reports)
        rec.wrap(cls, "support_counts", "ldp.decode")
    rec.wrap(UnaryEncodingOracle, "perturb_packed", "ldp.perturb", after=_count_reports)
    rec.wrap(UnaryEncodingOracle, "accumulate_packed", "ldp.decode")
    rec.wrap(OptimizedLocalHashing, "support_counts_range", "ldp.decode")
    rec.wrap(FrequencyOracle, "accumulate", "ldp.decode")
    rec.wrap(PrivacyAccountant, "record", "ldp.account")
    rec.wrap(PrivacyAccountant, "merge", "ldp.account")

    rec.wrap(estimation.PartyEstimator, "estimate_level", "core.estimate")
    rec.wrap(
        estimation.PartyEstimator, "estimate_on_users", "core.estimate", after=_count_round
    )
    rec.wrap(estimation.PartyEstimator, "select_extension", "core.extension")
    rec.wrap(taps, "select_pruning_candidates", "core.prune")
    rec.wrap(taps, "consensus_prune", "core.prune", after=_count_prune)

    for attr in ("__init__", "full_domain", "extended", "without",
                 "encode_items", "encode_prefixes"):
        rec.wrap(CandidateDomain, attr, "trie.domain")

    # encode_report_batch is looked up in both modules that call it.
    rec.wrap(protocol, "encode_report_batch", "service.encode")
    rec.wrap(server, "encode_report_batch", "service.encode")
    rec.wrap(server.AggregationServer, "ingest", "service.ingest", after=_count_batch)
    rec.wrap(server.AggregationServer, "finalize_round", "service.finalize")

    conn = client.GatewayConnection
    rec.wrap(conn, "send_batch", "net.send", before=_credits_exhausted, after=_send)
    rec.wrap(conn, "open_round", "net.round", after=_sample("net.open_round"))
    rec.wrap(conn, "finalize", "net.round", after=_sample("net.finalize"))
    rec.wrap(conn, "export_shard", "net.round", after=_export)

    cluster = coordinator.ClusterConnection
    rec.wrap(cluster, "send_batch", "cluster.route")
    rec.wrap(cluster, "finalize", "cluster.merge", after=_sample("cluster.merge_barrier"))
