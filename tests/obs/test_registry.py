"""Tests for the metrics registry: counters, gauges, histograms,
snapshot formats, and the worker delta protocol."""

import json

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    MetricField,
    MetricsRegistry,
    bind_metrics,
)


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", help="t", unit="things")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_sets_and_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_test_level", help="t", unit="things")
        g.set(10)
        assert g.value == 10
        g.set(3)
        assert g.value == 3

    def test_same_identity_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", labels={"stage": "extract"})
        b = reg.counter("repro_x_total", labels={"stage": "extract"})
        c = reg.counter("repro_x_total", labels={"stage": "match"})
        assert a is b
        assert a is not c

    def test_same_name_different_kind_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total")

    def test_get_by_name_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", labels={"stage": "lift"})
        assert reg.get("repro_x_total", {"stage": "lift"}) is c
        assert reg.get("repro_x_total", {"stage": "other"}) is None


class TestHistogram:
    def test_latency_bucket_edges_are_pinned(self):
        """The fixed log-scale edges are an interchange format: runs,
        engines, and workers merge bucket-for-bucket.  Changing them is
        a breaking change to every consumer of --metrics-out."""
        assert LATENCY_BUCKETS == tuple(1e-6 * 4 ** i for i in range(12))

    def test_observe_lands_in_correct_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds")
        assert h.edges == LATENCY_BUCKETS
        h.observe(0.5e-6)   # below the first edge
        h.observe(2e-6)     # between 1us and 4us
        h.observe(100.0)    # beyond the last edge -> overflow bucket
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[-1] == 1
        assert h.count == 3
        assert h.sum == pytest.approx(100.0 + 2.5e-6)

    def test_edge_value_goes_to_upper_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds")
        h.observe(1e-6)  # exactly the first edge: le="1e-06" is inclusive
        assert h.counts[0] == 1


class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", help="c", unit="things").inc(7)
        reg.gauge("repro_g", help="g", unit="bytes").set(42)
        reg.histogram("repro_h_seconds",
                      labels={"stage": "extract"}).observe(2e-6)
        return reg

    def test_json_snapshot_round_trips(self):
        reg = self._populated()
        data = json.loads(reg.to_json())
        assert data["schema"] == "repro.obs/v1"
        (counter,) = [c for c in data["counters"]
                      if c["name"] == "repro_c_total"]
        assert counter["value"] == 7
        (hist,) = data["histograms"]
        assert hist["labels"] == {"stage": "extract"}
        assert hist["count"] == 1
        assert len(hist["counts"]) == len(hist["buckets"]) + 1

    def test_schema_lists_every_metric(self):
        reg = self._populated()
        kinds = {(name, kind) for name, kind, _, _ in reg.schema()}
        assert ("repro_c_total", "counter") in kinds
        assert ("repro_g", "gauge") in kinds
        assert ("repro_h_seconds", "histogram") in kinds

    def test_prometheus_exposition(self):
        text = self._populated().to_prometheus()
        assert "# TYPE repro_c_total counter" in text
        assert "repro_c_total 7" in text
        assert "repro_g 42" in text
        # cumulative buckets with the +Inf terminator and _sum/_count
        # (labels render sorted, so "le" precedes "stage")
        assert 'repro_h_seconds_bucket{le="+Inf",stage="extract"} 1' in text
        assert 'repro_h_seconds_count{stage="extract"} 1' in text

    def test_prometheus_help_and_type_emitted_once_per_name(self):
        reg = MetricsRegistry()
        reg.counter("repro_stage_calls_total", labels={"stage": "lift"},
                    help="Stage invocations.").inc()
        reg.counter("repro_stage_calls_total", labels={"stage": "match"},
                    help="Stage invocations.").inc()
        text = reg.to_prometheus()
        assert text.count("# TYPE repro_stage_calls_total counter") == 1
        assert text.count("# HELP repro_stage_calls_total") == 1


class TestDeltaProtocol:
    def test_counter_delta_is_since_last_collect(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_c_total")
        c.inc(3)
        first = reg.collect_delta()
        c.inc(2)
        second = reg.collect_delta()

        parent = MetricsRegistry()
        parent.counter("repro_c_total").inc(100)
        parent.merge_delta(first)
        parent.merge_delta(second)
        assert parent.get("repro_c_total").value == 105

    def test_gauge_is_shipped_when_it_moved_and_only_then(self):
        """Last-writer-wins is only safe if silence is not a write: a
        gauge the worker never set must not reset the aggregator's."""
        worker = MetricsRegistry()
        level = worker.gauge("repro_level")
        worker.gauge("repro_parent_only")
        parent = MetricsRegistry()
        parent.gauge("repro_parent_only").set(7)
        level.set(3)
        parent.merge_delta(worker.collect_delta())
        assert parent.get("repro_level").value == 3
        assert parent.get("repro_parent_only").value == 7
        assert worker.collect_delta()["gauges"] == []  # nothing moved
        level.set(0)
        parent.merge_delta(worker.collect_delta())
        assert parent.get("repro_level").value == 0

    def test_histogram_delta_merges_per_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_h_seconds")
        h.observe(2e-6)
        delta = reg.collect_delta()
        h.observe(100.0)
        delta2 = reg.collect_delta()

        parent = MetricsRegistry()
        parent.merge_delta(delta)
        parent.merge_delta(delta2)
        merged = parent.get("repro_h_seconds")
        assert merged.count == 2
        assert merged.counts[1] == 1
        assert merged.counts[-1] == 1
        assert merged.sum == pytest.approx(100.0 + 2e-6)

    def test_delta_is_plain_picklable_data(self):
        import pickle

        reg = MetricsRegistry()
        reg.counter("repro_c_total", labels={"stage": "x"}).inc()
        reg.histogram("repro_h_seconds").observe(1.0)
        delta = reg.collect_delta()
        assert pickle.loads(pickle.dumps(delta)) == delta

    def test_empty_delta_merges_as_noop(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total").inc()
        reg.collect_delta()
        parent = MetricsRegistry()
        parent.merge_delta(reg.collect_delta())  # nothing new since last
        existing = parent.get("repro_c_total")
        assert existing is None or existing.value == 0


class TestMetricField:
    class Component:
        seen = MetricField("repro_comp_seen_total", help="seen",
                           unit="things")
        level = MetricField("repro_comp_level", kind="gauge", unit="bytes")

        def __init__(self, registry=None):
            bind_metrics(self, registry)

    def test_plain_int_idiom(self):
        comp = self.Component()
        comp.seen += 1
        comp.seen += 2
        comp.level = 7
        comp.level -= 3
        assert comp.seen == 3
        assert comp.level == 4

    def test_values_live_in_the_shared_registry(self):
        reg = MetricsRegistry()
        comp = self.Component(reg)
        comp.seen += 5
        assert reg.get("repro_comp_seen_total").value == 5
        assert reg.get("repro_comp_level").value == 0

    def test_private_registry_when_none(self):
        a = self.Component()
        b = self.Component()
        a.seen += 1
        assert b.seen == 0


class TestMergeUnknownKeys:
    """Delta keys the receiver never registered must not vanish silently:
    they are auto-registered AND counted (repro_obs_merge_unknown_total)."""

    def test_unknown_counter_key_is_counted_and_folded(self):
        worker = MetricsRegistry()
        worker.counter("repro_worker_only_total",
                       labels={"stage": "x"}).inc(3)
        delta = worker.collect_delta()

        parent = MetricsRegistry()  # never registered that key
        parent.merge_delta(delta)
        assert parent.get("repro_worker_only_total",
                          {"stage": "x"}).value == 3
        assert parent.get("repro_obs_merge_unknown_total").value == 1

    def test_known_keys_do_not_count_as_unknown(self):
        worker = MetricsRegistry()
        worker.counter("repro_shared_total").inc()
        delta = worker.collect_delta()

        parent = MetricsRegistry()
        parent.counter("repro_shared_total")  # pre-registered
        parent.merge_delta(delta)
        unknown = parent.get("repro_obs_merge_unknown_total")
        assert unknown is None or unknown.value == 0

    def test_cross_process_round_trip(self):
        """The fleet path: the delta crosses a real process boundary and
        still folds (plus the unknown-key count) on the far side."""
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            delta = pickle.loads(
                pool.submit(_delta_from_worker_process).result())
        parent = MetricsRegistry()
        parent.merge_delta(delta)
        parent.merge_delta(delta)  # second merge: key now known
        assert parent.get("repro_xproc_total").value == 10
        assert parent.get("repro_xproc_seconds").count == 2
        assert parent.get("repro_obs_merge_unknown_total").value == 2


def _delta_from_worker_process() -> bytes:
    """Module-level so ProcessPoolExecutor can pickle the callable."""
    import pickle

    reg = MetricsRegistry()
    reg.counter("repro_xproc_total").inc(5)
    reg.histogram("repro_xproc_seconds").observe(2e-6)
    return pickle.dumps(reg.collect_delta())
