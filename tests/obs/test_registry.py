"""Tests for the metrics registry: counters, gauges, histograms,
snapshot formats, the catalog it is born from, and the worker delta
protocol.  Names without the ``repro_`` prefix are ad-hoc series (the
registry mechanics on a known-small set); ``repro_*`` names are catalog
rows."""

import json
import pickle

import pytest

from repro.obs import (
    CATALOG,
    LATENCY_BUCKETS,
    MetricField,
    MetricsRegistry,
    bind_metrics,
)


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("test_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_sets_and_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("test_level")
        g.set(10)
        assert g.value == 10
        g.set(3)
        assert g.value == 3

    def test_same_identity_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"stage": "extract"})
        b = reg.counter("x_total", labels={"stage": "extract"})
        c = reg.counter("x_total", labels={"stage": "match"})
        assert a is b
        assert a is not c

    def test_same_name_different_kind_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total", labels={"stage": "lift"})
        with pytest.raises(ValueError):
            reg.gauge("repro_packets_total")

    def test_get_by_name_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labels={"stage": "lift"})
        assert reg.get("x_total", {"stage": "lift"}) is c
        assert reg.get("x_total", {"stage": "other"}) is None


class TestCatalog:
    def test_a_registry_is_born_with_every_catalog_series(self):
        reg = MetricsRegistry()
        assert {m.name for m in reg.metrics()} == set(CATALOG)
        for row in CATALOG.values():
            for labels in row.label_sets():
                metric = reg.get(row.name, labels)
                assert (metric.kind, metric.unit, metric.help) == \
                    (row.kind, row.unit, row.help)
        assert len(reg.metrics()) == sum(
            len(row.label_sets()) for row in CATALOG.values())

    def test_naming_a_series_returns_the_one_instance(self):
        reg = MetricsRegistry()
        calls = reg.counter("repro_stage_calls_total", {"stage": "lift"})
        assert calls is reg.get("repro_stage_calls_total", {"stage": "lift"})
        assert calls.help == CATALOG["repro_stage_calls_total"].help

    def test_a_repro_name_without_a_row_is_refused(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="repro.obs.catalog"):
            reg.counter("repro_undeclared_total")
        with pytest.raises(ValueError, match="repro.obs.catalog"):
            reg.histogram("repro_undeclared_seconds")
        assert len(reg.metrics()) == len(MetricsRegistry().metrics())

    def test_a_label_value_the_row_does_not_take_is_refused(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="repro.obs.catalog"):
            reg.counter("repro_stage_calls_total", {"stage": "warp"})
        with pytest.raises(ValueError, match="repro.obs.catalog"):
            reg.counter("repro_stage_calls_total")  # the row is labelled

    def test_every_row_is_well_formed(self):
        for row in CATALOG.values():
            assert row.name.startswith("repro_")
            assert row.kind in ("counter", "gauge", "histogram")
            assert row.unit and row.help, row.name


class TestHistogram:
    def test_latency_bucket_edges_are_pinned(self):
        """The fixed log-scale edges are an interchange format: runs,
        engines, and workers merge bucket-for-bucket.  Changing them is
        a breaking change to every consumer of --metrics-out."""
        assert LATENCY_BUCKETS == tuple(1e-6 * 4 ** i for i in range(12))

    def test_observe_lands_in_correct_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("test_seconds")
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
        h = reg.histogram("test_seconds")
        h.observe(1e-6)  # exactly the first edge: le="1e-06" is inclusive
        assert h.counts[0] == 1


class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(7)
        reg.gauge("g").set(42)
        reg.histogram("h_seconds", labels={"stage": "extract"}).observe(2e-6)
        return reg

    def test_json_snapshot_round_trips(self):
        reg = self._populated()
        data = json.loads(reg.to_json())
        assert data["schema"] == "repro.obs/v1"
        (counter,) = [c for c in data["counters"]
                      if c["name"] == "c_total"]
        assert counter["value"] == 7
        (hist,) = [h for h in data["histograms"]
                   if h["name"] == "h_seconds"]
        assert hist["labels"] == {"stage": "extract"}
        assert hist["count"] == 1
        assert len(hist["counts"]) == len(hist["buckets"]) + 1

    def test_schema_lists_every_metric(self):
        reg = self._populated()
        kinds = {(name, kind) for name, kind, _, _ in reg.schema()}
        assert ("c_total", "counter") in kinds
        assert ("g", "gauge") in kinds
        assert ("h_seconds", "histogram") in kinds

    def test_prometheus_exposition(self):
        text = self._populated().to_prometheus()
        assert "# TYPE c_total counter" in text
        assert "\nc_total 7\n" in text
        assert "\ng 42\n" in text
        # cumulative buckets with the +Inf terminator and _sum/_count
        # (labels render sorted, so "le" precedes "stage")
        assert 'h_seconds_bucket{le="+Inf",stage="extract"} 1' in text
        assert 'h_seconds_count{stage="extract"} 1' in text

    def test_prometheus_help_and_type_emitted_once_per_name(self):
        reg = MetricsRegistry()
        reg.counter("repro_stage_calls_total", {"stage": "lift"}).inc()
        reg.counter("repro_stage_calls_total", {"stage": "match"}).inc()
        text = reg.to_prometheus()
        assert text.count("# TYPE repro_stage_calls_total counter") == 1
        assert text.count(
            "# HELP repro_stage_calls_total Stage invocations.") == 1


class TestDeltaProtocol:
    def test_counter_delta_is_since_last_collect(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc(3)
        first = reg.collect_delta()
        c.inc(2)
        second = reg.collect_delta()

        parent = MetricsRegistry()
        parent.counter("c_total").inc(100)
        parent.merge_delta(first)
        parent.merge_delta(second)
        assert parent.get("c_total").value == 105

    def test_gauge_is_shipped_when_it_moved_and_only_then(self):
        """Last-writer-wins is only safe if silence is not a write: a
        gauge the worker never set must not reset the aggregator's."""
        worker = MetricsRegistry()
        level = worker.gauge("repro_ring_occupancy")
        parent = MetricsRegistry()
        parent.gauge("repro_breaker_open_shards").set(7)
        level.set(3)
        parent.merge_delta(worker.collect_delta())
        assert parent.get("repro_ring_occupancy").value == 3
        assert parent.get("repro_breaker_open_shards").value == 7
        assert worker.collect_delta()["gauges"] == []  # nothing moved
        level.set(0)
        parent.merge_delta(worker.collect_delta())
        assert parent.get("repro_ring_occupancy").value == 0

    def test_histogram_delta_merges_per_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds")
        h.observe(2e-6)
        delta = reg.collect_delta()
        h.observe(100.0)
        delta2 = reg.collect_delta()

        parent = MetricsRegistry()
        parent.merge_delta(delta)
        parent.merge_delta(delta2)
        merged = parent.get("h_seconds")
        assert merged.count == 2
        assert merged.counts[1] == 1
        assert merged.counts[-1] == 1
        assert merged.sum == pytest.approx(100.0 + 2e-6)

    def test_histogram_edges_must_agree(self):
        worker = MetricsRegistry()
        worker.histogram("repro_daemon_packet_seconds").observe(1.0)
        delta = worker.collect_delta()
        (name, key, _edges, counts, total), = delta["histograms"]
        delta["histograms"] = [(name, key, (0.5, 2.0), counts[:3], total)]
        with pytest.raises(ValueError, match="bucket edges differ"):
            MetricsRegistry().merge_delta(delta)

    def test_delta_is_plain_picklable_data_without_help_or_unit(self):
        """A delta is (name, labels, value): the receiver's catalog has
        the prose, so none of it rides every batch."""
        reg = MetricsRegistry()
        reg.counter("repro_stage_calls_total", {"stage": "extract"}).inc()
        reg.gauge("repro_reassembly_buffered_bytes").set(9)
        reg.histogram("repro_stage_latency_seconds",
                      {"stage": "extract"}).observe(1.0)
        delta = reg.collect_delta()
        blob = pickle.dumps(delta)
        assert pickle.loads(blob) == delta
        assert delta["counters"] == [
            ("repro_stage_calls_total", (("stage", "extract"),), 1)]
        assert delta["gauges"] == [("repro_reassembly_buffered_bytes", (), 9)]
        (hist,) = delta["histograms"]
        assert len(hist) == 5 and hist[:2] == (
            "repro_stage_latency_seconds", (("stage", "extract"),))
        for row in CATALOG.values():
            assert row.help.encode() not in blob
        parent = MetricsRegistry()
        parent.merge_delta(pickle.loads(blob))
        merged = parent.get("repro_stage_latency_seconds", {"stage": "extract"})
        assert merged.count == 1 and merged.unit == "seconds"
        assert parent.get("repro_obs_merge_unknown_total").value == 0

    def test_empty_delta_merges_as_noop(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.collect_delta()
        parent = MetricsRegistry()
        parent.merge_delta(reg.collect_delta())  # nothing new since last
        assert parent.get("c_total") is None


class TestMetricField:
    class Component:
        seen = MetricField("repro_packets_total")
        level = MetricField("repro_ring_occupancy")

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
        assert reg.get("repro_packets_total").value == 5
        assert reg.get("repro_ring_occupancy").value == 0

    def test_private_registry_when_none(self):
        a = self.Component()
        b = self.Component()
        a.seen += 1
        assert b.seen == 0

    def test_a_field_names_a_catalog_row(self):
        class Stray:
            seen = MetricField("repro_undeclared_total")

        with pytest.raises(KeyError):
            bind_metrics(Stray(), None)


class TestMergeUnknownKeys:
    """A delta series the receiver does not hold — every registry holds
    the catalog, so a worker built from another version's — must not
    vanish silently: it is registered bare, folded AND counted
    (repro_obs_merge_unknown_total)."""

    def test_unknown_counter_key_is_counted_and_folded(self):
        skewed = {"counters": [
            ("repro_worker_only_total", (("stage", "x"),), 3)]}
        parent = MetricsRegistry()
        parent.merge_delta(skewed)
        assert parent.get("repro_worker_only_total",
                          {"stage": "x"}).value == 3
        assert parent.get("repro_obs_merge_unknown_total").value == 1
        parent.merge_delta(skewed)  # now held: folded, not counted again
        assert parent.get("repro_worker_only_total",
                          {"stage": "x"}).value == 6
        assert parent.get("repro_obs_merge_unknown_total").value == 1

    def test_known_keys_do_not_count_as_unknown(self):
        worker = MetricsRegistry()
        worker.counter("shared_total").inc()
        worker.counter("repro_packets_total").inc()
        delta = worker.collect_delta()

        parent = MetricsRegistry()
        parent.counter("shared_total")  # pre-registered
        parent.merge_delta(delta)
        assert parent.get("repro_obs_merge_unknown_total").value == 0

    def test_cross_process_round_trip(self):
        """The fleet path: the delta crosses a real process boundary and
        still folds (plus the unknown-key count) on the far side."""
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            delta = pickle.loads(
                pool.submit(_delta_from_worker_process).result())
        parent = MetricsRegistry()
        parent.merge_delta(delta)
        parent.merge_delta(delta)  # second merge: key now known
        assert parent.get("xproc_total").value == 10
        assert parent.get("xproc_seconds").count == 2
        assert parent.get("repro_obs_merge_unknown_total").value == 2


def _delta_from_worker_process() -> bytes:
    """Module-level so ProcessPoolExecutor can pickle the callable."""
    reg = MetricsRegistry()
    reg.counter("xproc_total").inc(5)
    reg.histogram("xproc_seconds").observe(2e-6)
    return pickle.dumps(reg.collect_delta())
