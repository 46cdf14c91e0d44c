"""Tests for the bounded ingestion ring: shed policies and accounting."""

import pytest

from repro.obs import MetricsRegistry
from repro.resilience import SHED_POLICIES, BoundedRing


class TestAdmission:
    def test_fifo_below_capacity(self):
        ring = BoundedRing(4)
        assert ring.offer_all(["a", "b", "c"]) == 3
        assert [ring.take(), ring.take(), ring.take()] == ["a", "b", "c"]
        assert ring.take() is None

    def test_invalid_capacity_and_policy(self):
        with pytest.raises(ValueError):
            BoundedRing(0)
        with pytest.raises(ValueError):
            BoundedRing(4, policy="random")

    def test_policies_are_the_documented_three(self):
        assert SHED_POLICIES == ("newest", "oldest", "block")


class TestShedNewest:
    def test_full_ring_sheds_arrival(self):
        ring = BoundedRing(2, policy="newest")
        assert ring.offer("a") and ring.offer("b")
        assert not ring.offer("c")  # tail drop
        assert ring.shed_total == 1
        assert [ring.take(), ring.take()] == ["a", "b"]

    def test_every_shed_is_counted(self):
        ring = BoundedRing(1, policy="newest")
        ring.offer("keep")
        for i in range(7):
            ring.offer(i)
        assert ring.shed_total == 7
        assert ring.accepted_total == 1


class TestShedOldest:
    def test_full_ring_evicts_stalest(self):
        ring = BoundedRing(2, policy="oldest")
        ring.offer("a"), ring.offer("b")
        assert ring.offer("c")  # the arrival is admitted...
        assert ring.shed_total == 1  # ...its victim is what was shed
        assert [ring.take(), ring.take()] == ["b", "c"]


class TestBlock:
    def test_full_ring_refuses_without_shedding(self):
        ring = BoundedRing(2, policy="block")
        ring.offer("a"), ring.offer("b")
        assert not ring.offer("c")
        assert ring.shed_total == 0
        assert ring.backpressure_total == 1
        ring.take()
        assert ring.offer("c")  # drained: the retry is admitted

    def test_nothing_is_ever_lost(self):
        ring = BoundedRing(1, policy="block")
        admitted, refused = 0, 0
        for item in range(5):
            if ring.offer(item):
                admitted += 1
            else:
                refused += 1
                ring.take()
                assert ring.offer(item)
                admitted += 1
        assert admitted == 5
        assert ring.shed_total == 0
        assert ring.backpressure_total == refused


class TestMetrics:
    def test_counters_land_in_the_shared_registry(self):
        reg = MetricsRegistry()
        ring = BoundedRing(1, policy="newest", registry=reg)
        ring.offer("a")
        ring.offer("b")  # shed
        shed = reg.get("repro_shed_packets_total", {"policy": "newest"})
        assert shed is not None and shed.value == 1
        assert reg.get("repro_ring_accepted_total").value == 1
        assert reg.get("repro_ring_occupancy").value == 1

    def test_high_watermark_tracks_peak_not_current(self):
        reg = MetricsRegistry()
        ring = BoundedRing(8, registry=reg)
        ring.offer_all(range(5))
        for _ in range(5):
            ring.take()
        assert reg.get("repro_ring_occupancy").value == 0
        assert reg.get("repro_ring_high_watermark").value == 5
