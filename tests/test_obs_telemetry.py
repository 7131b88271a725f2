"""Telemetry end to end: wire extension, live scrapes, bit-identity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.ldp.registry import make_oracle
from repro.net import framing, run_loadgen, start_gateway
from repro.net.client import GatewayConnection
from repro.obs.registry import METRICS_SCHEMA, validate_metrics_document
from repro.obs.trace import Tracer
from repro.service.clients import iter_perturbed_batches
from repro.service.protocol import RoundBroadcast, encode_report_batch
from repro.trie.candidate_domain import CandidateDomain


def _broadcast(domain, *, level=3):
    return RoundBroadcast(
        party="alpha",
        level=level,
        oracle_name="krr",
        epsilon=4.0,
        domain_size=domain.size,
        prefixes=tuple(domain.prefixes),
    )


def _batches(domain, *, seed, n=300):
    oracle = make_oracle("krr", 4.0)
    values = np.random.default_rng(seed).integers(0, domain.size, size=n)
    return [
        encode_report_batch(batch)
        for batch in iter_perturbed_batches(
            oracle, values, domain.size, seed, batch_size=100, party="alpha", level=3
        )
    ]


class TestWireExtension:
    def test_split_frame_kind_separates_the_flag(self):
        assert framing.split_frame_kind(framing.FRAME_REPORT_BATCH) == (
            framing.FRAME_REPORT_BATCH,
            False,
        )
        flagged = framing.FRAME_REPORT_BATCH | framing.FRAME_FLAG_TRACE
        assert framing.split_frame_kind(flagged) == (framing.FRAME_REPORT_BATCH, True)

    def test_trace_bytes_ride_outside_the_body_length(self):
        """The extension is ignorable: the u32 length still counts body
        bytes only, so wire-bit accounting is identical with or without
        the 24 trace bytes between header and body."""
        body = b"payload"
        trace = bytes(range(framing.TRACE_CONTEXT_SIZE))
        plain = framing.encode_frame(framing.FRAME_REPORT_BATCH, body)
        stamped = framing.encode_frame(framing.FRAME_REPORT_BATCH, body, trace=trace)
        assert len(stamped) == len(plain) + framing.TRACE_CONTEXT_SIZE
        length, raw_kind = framing.parse_frame_header(
            stamped[: framing.FRAME_HEADER_SIZE]
        )
        assert length == len(body)
        kind, has_trace = framing.split_frame_kind(raw_kind)
        assert kind == framing.FRAME_REPORT_BATCH and has_trace
        assert stamped[framing.FRAME_HEADER_SIZE :] == trace + body

    def test_wrong_size_trace_is_rejected(self):
        with pytest.raises(ValueError, match="24"):
            framing.encode_frame(framing.FRAME_REPORT_BATCH, b"x", trace=b"short")

    def test_metrics_frame_codec_round_trips(self):
        document = {
            "schema": METRICS_SCHEMA,
            "source": "gateway",
            "metrics": {"counters": {"n": 3}, "gauges": {}, "histograms": {}},
        }
        body = framing.encode_metrics_frame(document)
        assert framing.decode_metrics_frame(body) == document


class TestLiveScrape:
    @pytest.fixture(scope="class")
    def gateway(self):
        with start_gateway(telemetry_sample=1.0) as handle:
            yield handle

    def test_mid_round_scrape_reports_live_series(self, gateway):
        domain = CandidateDomain.full_domain(3)
        with GatewayConnection(gateway.address) as connection:
            round_id, _ = connection.open_round(_broadcast(domain))
            payloads = _batches(domain, seed=5)
            connection.send_batch(round_id, payloads[0])
            connection.drain()
            # Scrape from a *second* connection while the round is open.
            with GatewayConnection(gateway.address) as probe:
                document = validate_metrics_document(probe.metrics())
            counters = document["metrics"]["counters"]
            assert document["source"] == "gateway"
            assert counters["gateway_rounds_opened_total"] >= 1
            assert counters["gateway_batches_ingested_total"] >= 1
            assert counters["service_reports_total"] >= 100
            assert document["metrics"]["gauges"]["gateway_connections_live"] >= 1
            hist = document["metrics"]["histograms"]["gateway_batch_ms"]
            assert hist["count"] >= 1  # telemetry_sample=1 times every batch
            assert document["stats"]["rounds_opened"] >= 1
            for payload in payloads[1:]:
                connection.send_batch(round_id, payload)
            estimate = connection.finalize(round_id)
        assert estimate.n_users == 300

    def test_stats_cli_scrapes_and_validates(self, gateway, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", gateway.address, "--json", "-o", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text(encoding="utf-8"))
        validate_metrics_document(document)
        # One gateway is a one-shard cluster: its own document is shards[0].
        assert document["source"] == "cluster"
        (shard,) = document["shards"]
        validate_metrics_document(shard)
        assert shard["source"] == "gateway"
        assert shard["metrics"]["counters"]["gateway_connections_total"] >= 1
        assert main(["stats", gateway.address]) == 0
        rendered = capsys.readouterr().out
        assert "gateway_connections_total" in rendered
        assert "gateway_batch_ms" in rendered
        # The scraper's own, empty coordinator registry is not summarised.
        assert "cluster_rounds_opened_total" not in rendered
        assert rendered.startswith("cluster of 1 shard(s)")

    def test_stats_cli_fails_cleanly_when_nothing_listens(self, capsys):
        assert main(["stats", "127.0.0.1:9", "--timeout", "0.5"]) == 2
        assert "cannot scrape" in capsys.readouterr().err


class TestBitIdentity:
    def test_full_telemetry_and_mid_round_scrapes_never_perturb_the_estimate(self):
        """The invariant the whole subsystem hangs on: a fixed-seed round
        against a fully instrumented gateway (sampling on, tracer on,
        trace-stamped frames, concurrent scrapes between batches) yields
        byte-identical estimates to a plain gateway."""
        domain = CandidateDomain.full_domain(3)
        payloads = _batches(domain, seed=11)

        with start_gateway() as plain:
            with GatewayConnection(plain.address) as connection:
                round_id, plain_bits = connection.open_round(_broadcast(domain))
                for payload in payloads:
                    connection.send_batch(round_id, payload)
                baseline = connection.finalize(round_id)

        gateway_tracer = Tracer(seed=0)
        with start_gateway(
            telemetry_sample=1.0, tracer=gateway_tracer
        ) as instrumented:
            client_tracer = Tracer(seed=1)
            with GatewayConnection(
                instrumented.address, tracer=client_tracer
            ) as connection:
                round_id, traced_bits = connection.open_round(_broadcast(domain))
                for payload in payloads:
                    connection.send_batch(round_id, payload)
                    connection.drain()
                    with GatewayConnection(instrumented.address) as probe:
                        validate_metrics_document(probe.metrics())
                traced = connection.finalize(round_id)

        assert traced_bits == plain_bits
        np.testing.assert_array_equal(
            traced.support_counts, baseline.support_counts
        )
        assert traced.estimated_counts.tobytes() == baseline.estimated_counts.tobytes()
        assert traced.metadata == baseline.metadata

        # And the trace actually crossed the wire: gateway ingest spans
        # are parented on the client's batch spans, same trace ids.
        client_spans = {s["span_id"]: s for s in client_tracer.drain()}
        ingests = [
            s for s in gateway_tracer.drain() if s["name"] == "gateway.ingest"
        ]
        assert len(ingests) == len(payloads)
        for span in ingests:
            parent = client_spans[span["parent_id"]]
            assert parent["name"] == "client.batch"
            assert parent["trace_id"] == span["trace_id"]


class TestLoadgenTelemetry:
    def test_report_carries_merged_snapshot_and_span_log(self, tmp_path):
        trace_log = tmp_path / "spans.jsonl"
        with start_gateway(telemetry_sample=1.0) as gateway:
            report = run_loadgen(
                gateway.address,
                dataset="rdb",
                scale="tiny",
                level=4,
                batch_size=256,
                connections=2,
                rounds=1,
                backend="serial",
                seed=0,
                telemetry=True,
                trace_log=trace_log,
            )
        document = validate_metrics_document(report.telemetry)
        assert document["source"] == "loadgen"
        validate_metrics_document(document["gateway"])
        payload = report.to_dict()
        assert payload["telemetry"]["source"] == "loadgen"
        assert payload["trace_log"] == str(trace_log)

        spans = [
            json.loads(line)
            for line in trace_log.read_text(encoding="utf-8").splitlines()
        ]
        names = {span["name"] for span in spans}
        assert {"client.round", "client.batch"} <= names
        assert all("trace_id" in span and "duration_ms" in span for span in spans)

    def test_off_reports_stay_byte_identical_to_pre_telemetry_shape(self):
        with start_gateway() as gateway:
            report = run_loadgen(
                gateway.address,
                dataset="rdb",
                scale="tiny",
                level=4,
                connections=1,
                rounds=1,
                backend="serial",
                seed=0,
            )
        payload = report.to_dict()
        assert "telemetry" not in payload
        assert "trace_log" not in payload
