"""Tests for StageTimer: the shared-view contract between components,
NidsStats, metrics, and spans."""

import pytest

from repro.obs import (
    ANALYZE_STAGE,
    PIPELINE_STAGES,
    MetricsRegistry,
    StageTimer,
    Tracer,
)


class TestStageVocabulary:
    def test_six_stages_in_dataflow_order(self):
        assert PIPELINE_STAGES == ("classify", "reassemble", "extract",
                                   "disassemble", "lift", "match")
        assert ANALYZE_STAGE == "analyze"
        assert ANALYZE_STAGE not in PIPELINE_STAGES


class TestStageTimer:
    def test_timed_feeds_all_four_metrics(self):
        reg = MetricsRegistry()
        timer = StageTimer("extract", reg)
        with timer.timed(nbytes=100):
            pass
        with timer.timed(nbytes=50):
            pass
        labels = {"stage": "extract"}
        assert reg.get("repro_stage_calls_total", labels).value == 2
        assert reg.get("repro_stage_bytes_total", labels).value == 150
        seconds = reg.get("repro_stage_seconds_total", labels).value
        assert seconds > 0.0
        hist = reg.get("repro_stage_latency_seconds", labels)
        assert hist.count == 2
        assert hist.sum == pytest.approx(seconds)

    def test_two_timers_same_registry_are_one_set_of_numbers(self):
        """The NidsStats view and the component's own timer must never
        drift: same (name, stage) -> same metric instances."""
        reg = MetricsRegistry()
        component = StageTimer("classify", reg)
        view = StageTimer("classify", reg)
        with component.timed(nbytes=10):
            pass
        assert view.calls == 1
        assert view.bytes == 10
        assert view.elapsed == component.elapsed

    def test_different_stages_do_not_share(self):
        reg = MetricsRegistry()
        a = StageTimer("lift", reg)
        b = StageTimer("match", reg)
        with a.timed():
            pass
        assert a.calls == 1
        assert b.calls == 0

    def test_observe_records_even_when_block_raises(self):
        timer = StageTimer("match")
        with pytest.raises(RuntimeError):
            with timer.timed():
                raise RuntimeError("boom")
        assert timer.calls == 1

    def test_span_emitted_only_with_tracer(self):
        tracer = Tracer()
        timer = StageTimer("disassemble", tracer=tracer)
        with timer.timed(nbytes=32):
            pass
        (span,) = tracer.spans
        assert span.stage == "disassemble"
        assert span.nbytes == 32
        assert span.duration == pytest.approx(timer.elapsed)

        untraced = StageTimer("disassemble")
        with untraced.timed():
            pass  # NullTracer: no span, no error

    def test_value_views_are_read_only(self):
        """Numbers enter through ``observe`` / ``timed``; the views only
        read them."""
        timer = StageTimer("extract")
        timer.observe(0.5, nbytes=99)
        timer.observe(0.0)
        assert (timer.calls, timer.elapsed, timer.bytes) == (2, 0.5, 99)
        assert timer.mean == 0.25
        with pytest.raises(AttributeError):
            timer.calls += 1

    def test_a_stage_outside_the_vocabulary_is_refused(self):
        with pytest.raises(ValueError, match="repro.obs.catalog"):
            StageTimer("warp")

    def test_mean_of_idle_timer_is_zero(self):
        assert StageTimer("lift").mean == 0.0
