"""Observability contract tests for the pipeline.

Three guarantees are pinned here:

1. **Engine equivalence** — a serial and a parallel run over the same
   capture export the identical metric schema, and (with the caches
   disabled, so every payload does real work in both engines) equal
   totals for every pipeline counter.
2. **Back-compat** — ``NidsStats`` attribute names and the stage-timer
   views report the same values they did before the registry existed.
3. **Docs honesty** — the metric names in ``docs/observability.md``
   match the series catalog, in both directions.
"""

import json
import re
from pathlib import Path

import pytest

from repro.engines.codered import CodeRedHost
from repro.net.packet import tcp_packet
from repro.nids import ParallelSemanticNids, SemanticNids
from repro.obs import (
    ANALYZE_STAGE,
    CATALOG,
    LATENCY_BUCKETS,
    PIPELINE_STAGES,
)

DARK_KW = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
               dark_threshold=5)

#: wall-time metrics: legitimately different between engines/runs.
TIMING_NAMES = {"repro_stage_seconds_total",
                "repro_match_plan_compile_seconds"}
#: parallel-engine machinery: zero in a serial run by construction.
PARALLEL_ONLY_NAMES = {"repro_payloads_offloaded_total",
                       "repro_worker_failures_total"}
#: gauges are instantaneous levels, compared only at matching moments.
GAUGE_KINDS = {"gauge"}


def attack_trace(attackers=3, victims=3, seed=5):
    packets = []
    for i in range(attackers):
        host = CodeRedHost(ip=f"10.{40 + i}.1.2", seed=seed + i)
        packets += host.scan_packets(count=8, base_time=float(i))
        for v in range(victims):
            packets += host.exploit_packets(f"10.10.0.{5 + v}",
                                            base_time=10.0 + i + v * 0.01)
    packets.sort(key=lambda p: p.timestamp)
    return packets


def run(nids, trace):
    nids.process_trace(trace)
    nids.close()
    return nids


@pytest.fixture(scope="module")
def engines():
    """One serial and one parallel run over the same capture, caches
    disabled so both engines do identical countable work."""
    trace = attack_trace()
    serial = run(SemanticNids(frame_cache_size=0, **DARK_KW), trace)
    parallel = run(ParallelSemanticNids(workers=2, frame_cache_size=0,
                                        **DARK_KW), trace)
    return serial, parallel


class TestSerialParallelEquivalence:
    def test_alert_sets_identical(self, engines):
        serial, parallel = engines
        assert (sorted((a.template, a.source) for a in serial.alerts)
                == sorted((a.template, a.source) for a in parallel.alerts))
        assert serial.alerts  # equivalence of empty runs proves nothing

    def test_schema_identical(self, engines):
        serial, parallel = engines
        assert serial.registry.schema() == parallel.registry.schema()

    def test_counter_totals_equal(self, engines):
        serial, parallel = engines
        s = {(m.name, tuple(sorted(m.labels.items()))): m.value
             for m in serial.registry.metrics() if m.kind == "counter"}
        p = {(m.name, tuple(sorted(m.labels.items()))): m.value
             for m in parallel.registry.metrics() if m.kind == "counter"}
        assert s.keys() == p.keys()
        diffs = {
            key: (sv, p[key]) for key, sv in s.items()
            if sv != p[key]
            and key[0] not in TIMING_NAMES | PARALLEL_ONLY_NAMES
        }
        assert not diffs

    def test_parallel_actually_offloaded(self, engines):
        _, parallel = engines
        assert parallel.stats.payloads_offloaded > 0
        assert parallel.stats.worker_failures == 0

    def test_histograms_same_edges_and_counts(self, engines):
        """Per-bucket counts jitter with wall time; the merge-stable
        comparables are the edges and the total observation count."""
        serial, parallel = engines
        for m in serial.registry.metrics():
            if m.kind != "histogram":
                continue
            other = parallel.registry.get(m.name, m.labels)
            assert other.edges == m.edges == LATENCY_BUCKETS
            assert other.count == m.count
            assert sum(other.counts) == other.count

    def test_all_stages_measured(self, engines):
        for nids in engines:
            for stage in PIPELINE_STAGES + (ANALYZE_STAGE,):
                calls = nids.registry.get("repro_stage_calls_total",
                                          {"stage": stage})
                assert calls is not None and calls.value > 0, stage


class TestNidsStatsBackCompat:
    def test_attribute_views_match_registry(self, engines):
        serial, _ = engines
        stats = serial.stats
        reg = serial.registry
        assert stats.packets == reg.get("repro_packets_total").value
        assert stats.alerts == reg.get("repro_alerts_total").value
        assert (stats.frames_analyzed
                == reg.get("repro_frames_analyzed_total").value)
        assert stats.analysis.calls == reg.get(
            "repro_stage_calls_total", {"stage": ANALYZE_STAGE}).value

    def test_stage_timer_views_share_component_numbers(self, engines):
        serial, _ = engines
        # the stats view and the classifier's own timer are one metric set
        assert serial.stats.classify.calls == serial.classifier.timer.calls
        assert serial.stats.extraction.calls == serial.extractor.timer.calls

    def test_summary_still_renders(self, engines):
        serial, _ = engines
        summary = serial.stats.summary()
        assert f"packets={serial.stats.packets}" in summary
        assert "classify" in summary


class TestMetricsCli:
    def _run_sensor(self, tmp_path, extra):
        from repro.cli import make_trace_main, sensor_main

        pcap = tmp_path / "t.pcap"
        make_trace_main([str(pcap), "--index", "0", "--packets", "1500"])
        out = tmp_path / "metrics.out"
        rc = sensor_main([str(pcap), "--dark-net", "10.0.0.0/8",
                          "--dark-exclude", "10.10.0.0/24",
                          "--metrics-out", str(out)] + extra)
        assert rc == 1  # the trace contains CRII instances
        return out

    def test_metrics_out_json(self, tmp_path, capsys):
        out = self._run_sensor(tmp_path, [])
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.obs/v1"
        stage_calls = {
            c["labels"]["stage"]: c["value"] for c in data["counters"]
            if c["name"] == "repro_stage_calls_total"}
        for stage in PIPELINE_STAGES + (ANALYZE_STAGE,):
            assert stage_calls.get(stage, 0) > 0, stage
        # the front-end counters are the components' own series
        names = {c["name"] for c in data["counters"]}
        assert "repro_defrag_fragments_dropped_total" in names
        assert not [n for n in names if n.startswith("repro_frontend_")
                    and n != "repro_frontend_state_evicted_total"]

    def test_metrics_out_prometheus(self, tmp_path, capsys):
        out = self._run_sensor(tmp_path, ["--metrics-format", "prom"])
        text = out.read_text()
        assert "# TYPE repro_packets_total counter" in text
        assert "# TYPE repro_stage_latency_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_trace_out_spans(self, tmp_path, capsys):
        from repro.cli import make_trace_main, sensor_main
        from repro.obs import aggregate_spans, read_spans

        pcap = tmp_path / "t.pcap"
        make_trace_main([str(pcap), "--index", "0", "--packets", "1500"])
        spans_path = tmp_path / "spans.jsonl"
        sensor_main([str(pcap), "--dark-net", "10.0.0.0/8",
                     "--dark-exclude", "10.10.0.0/24",
                     "--trace-out", str(spans_path)])
        agg = aggregate_spans(read_spans(str(spans_path)))
        for stage in PIPELINE_STAGES + (ANALYZE_STAGE,):
            assert agg[stage]["calls"] > 0, stage
            assert agg[stage]["seconds"] >= 0.0


class TestDocsCatalog:
    def test_docs_match_the_catalog_both_ways(self):
        """Every series is documented; every series name the doc uses —
        in a table or in prose, bare or with a Prometheus suffix of a
        histogram — is a catalog row.  (Every registry holds exactly the
        catalog, ``test_metric_schema.py``; the table cells are diffed
        by ``tools/check_docs.py``.)"""
        doc = (Path(__file__).parent.parent.parent / "docs"
               / "observability.md").read_text()
        documented = set(re.findall(r"`(repro_[a-z0-9_]+)`", doc))
        suffixed = {name + suffix for name, row in CATALOG.items()
                    if row.kind == "histogram"
                    for suffix in ("_bucket", "_sum", "_count")}
        assert set(CATALOG) - documented == set(), "undocumented"
        assert documented - set(CATALOG) - suffixed == set(), \
            "documented but not in the catalog"
