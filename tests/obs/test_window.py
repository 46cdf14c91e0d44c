"""Tests for rolling metric windows and the drift-free schedule."""

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsWindow,
    PeriodicSchedule,
    quantile_from_buckets,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, secs):
        self.now += secs


class TestPeriodicSchedule:
    def test_not_due_before_interval(self):
        clock = FakeClock()
        sched = PeriodicSchedule(10.0, clock)
        clock.advance(9.99)
        assert not sched.due()

    def test_due_once_per_interval(self):
        clock = FakeClock()
        sched = PeriodicSchedule(10.0, clock)
        clock.advance(10.0)
        assert sched.due()
        assert not sched.due()
        clock.advance(10.0)
        assert sched.due()

    def test_deadlines_do_not_drift(self):
        """Regression for the --heartbeat drift bug: each beat used to be
        scheduled ``interval`` after the *print*, so per-batch processing
        time accumulated into the cadence.  Deadline-anchored scheduling
        keeps beat N at exactly ``start + N * interval`` no matter how
        late each check runs."""
        clock = FakeClock()
        sched = PeriodicSchedule(10.0, clock)
        fired_at = []
        # The caller polls 0.4s late every time; with schedule-from-now
        # the tenth deadline would have slipped by 10 * 0.4 = 4 seconds.
        for beat in range(1, 11):
            clock.now = beat * 10.0 + 0.4
            assert sched.due()
            fired_at.append(sched.next_deadline)
        assert fired_at == [pytest.approx(beat * 10.0 + 10.0)
                            for beat in range(1, 11)]

    def test_missed_intervals_skip_not_burst(self):
        clock = FakeClock()
        sched = PeriodicSchedule(10.0, clock)
        clock.now = 57.0  # slept through deadlines 10..50
        assert sched.due()
        assert not sched.due()  # no backlog replay
        assert sched.next_deadline == pytest.approx(60.0)  # grid preserved

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            PeriodicSchedule(0.0)


class TestQuantileFromBuckets:
    def test_empty_histogram(self):
        assert quantile_from_buckets(LATENCY_BUCKETS,
                                     [0] * (len(LATENCY_BUCKETS) + 1),
                                     0.99) == 0.0

    def test_reports_upper_edge_of_target_bucket(self):
        counts = [0] * (len(LATENCY_BUCKETS) + 1)
        counts[1] = 90  # 90 observations in (1us, 4us]
        counts[3] = 10  # 10 in (16us, 64us]
        assert quantile_from_buckets(LATENCY_BUCKETS, counts, 0.5) == \
            LATENCY_BUCKETS[1]
        assert quantile_from_buckets(LATENCY_BUCKETS, counts, 0.99) == \
            LATENCY_BUCKETS[3]

    def test_overflow_bucket_degrades_to_last_edge(self):
        counts = [0] * (len(LATENCY_BUCKETS) + 1)
        counts[-1] = 5
        assert quantile_from_buckets(LATENCY_BUCKETS, counts, 0.99) == \
            LATENCY_BUCKETS[-1]


class TestMetricsWindow:
    def test_window_holds_increment_not_total(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        c = reg.counter("w_total")
        win = MetricsWindow(reg, clock=clock)
        c.inc(100)
        clock.advance(10.0)
        win.roll()
        c.inc(5)
        clock.advance(10.0)
        snap = win.roll()
        assert snap.counters[("w_total", ())] == 5
        assert snap.rate("w_total") == pytest.approx(0.5)

    def test_histogram_quantile_is_per_window(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        h = reg.histogram("w_seconds")
        win = MetricsWindow(reg, clock=clock)
        for _ in range(100):
            h.observe(2e-6)  # slow past, bucket (1us, 4us]
        clock.advance(1.0)
        win.roll()
        for _ in range(10):
            h.observe(0.3)  # this window is much slower
        clock.advance(1.0)
        snap = win.roll()
        assert snap.quantile("w_seconds", 0.99) > 0.2
        assert snap.quantile("w_seconds", 0.99) >= \
            snap.quantile("w_seconds", 0.5)

    def test_bounded_to_max_windows(self):
        clock = FakeClock()
        win = MetricsWindow(MetricsRegistry(), max_windows=3, clock=clock)
        for _ in range(10):
            clock.advance(1.0)
            win.roll()
        assert len(win.windows) == 3
        assert win.latest.end == clock.now

    def test_does_not_disturb_worker_delta_protocol(self):
        """Windowing must keep its own bookkeeping: collect_delta's
        ``_last`` fields belong to the cross-process merge path."""
        reg = MetricsRegistry()
        c = reg.counter("w_total")
        win = MetricsWindow(reg, clock=FakeClock())
        c.inc(7)
        win.roll()  # windows diff...
        delta = reg.collect_delta()  # ...but the delta still sees all 7
        parent = MetricsRegistry()
        parent.merge_delta(delta)
        assert parent.get("w_total").value == 7
