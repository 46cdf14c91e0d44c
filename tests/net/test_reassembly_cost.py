"""What hostile delivery schedules cost the two reassemblers.

The sender picks the schedule, so the reassembly queue is an attack
surface of its own (SegmentSmack / FragmentSmack, CVE-2018-5390 / -5391):
not the bytes but their order, spacing and size are chosen to make every
arrival expensive or every held byte costly.  Four schedules, each a
defect the per-arrival ``sorted()`` walks and payload-only accounting had:

* one stream of 1-byte segments at every other sequence number, ascending
  and descending (every segment of the latter rebases the stream);
* one 64,000-byte datagram cut into 8-byte fragments, delivered in order,
  last fragment first, and shuffled;
* first fragments of new datagrams arriving at a full table;
* sparse one-piece-per-hole schedules, where what is held is mostly
  overhead, measured against what the ``*_buffered_bytes`` gauges claim.

Costs are CPU time (``process_time``), best of a few runs, and compared as
ratios at 16x the size, so the assertions hold on a busy host.
"""

import gc
import random
import time
import tracemalloc

import pytest

from repro.net.defrag import IpDefragmenter, fragment_packet
from repro.net.flow import StreamReassembler
from repro.net.layers import Ipv4
from repro.net.packet import Packet, tcp_packet, udp_packet

FLAT = 3.0  # per-arrival cost at 16x the size stays under this ratio


def _cpu(feed, items) -> float:
    """CPU seconds per item of feeding ``items`` through ``feed``."""
    gc.collect()
    start = time.process_time()
    for item in items:
        feed(item)
    return (time.process_time() - start) / len(items)


def _sparse_segments(count, descending=False):
    """``count`` 1-byte segments of one flow at every other sequence
    number: each is a piece of its own, none ever joins another."""
    seqs = range(10_000_000, 10_000_000 + 2 * count, 2)
    return [tcp_packet("6.6.6.6", "10.0.0.1", 4000, 80, payload=b"x", seq=seq)
            for seq in (reversed(seqs) if descending else seqs)]


def _first_fragment(i, payload=b"f" * 8, timestamp=1.0, slot=0):
    """An MF=1 fragment of datagram number ``i`` (its own table entry)."""
    ip = Ipv4(src=f"7.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}",
              dst="10.0.0.1", proto=17, ident=i & 0xFFFF, flags=1,
              frag_offset=slot)
    return Packet(ip=ip, payload=payload, timestamp=timestamp)


class TestCostPerArrivalIsFlat:
    @pytest.mark.parametrize("descending", [False, True],
                             ids=["ascending", "descending-rebasing"])
    def test_sparse_segments(self, descending):
        """The 1,000 segments that arrive on top of 16,000 pending pieces
        cost what those on top of 1,000 did (it was proportional)."""
        packets = _sparse_segments(17_000, descending)
        best = {1_000: float("inf"), 16_000: float("inf")}
        for _ in range(3):
            reasm = StreamReassembler()
            fed = 0
            for pending in best:
                for pkt in packets[fed:pending]:
                    reasm.feed(pkt)
                fed = pending + 1_000
                best[pending] = min(best[pending], _cpu(
                    reasm.feed, packets[pending:fed]))
            (stream,) = reasm.streams.values()
            assert len(stream.pieces()) == 17_000 - 1
            assert reasm.overlaps_trimmed == 0 == reasm.out_of_window_segments
        assert best[16_000] < FLAT * best[1_000]

    @pytest.mark.parametrize("order", ["in-order", "last-first", "shuffled"])
    def test_tiny_fragments(self, order):
        """A 64,000-byte datagram in 8-byte fragments costs, per fragment,
        what a 4,000-byte one does (last-first it took 7 s of CPU)."""
        def schedule(size):
            frags = fragment_packet(udp_packet(
                "6.6.6.6", "10.0.0.1", 53, 53, bytes(size)), fragment_size=8)
            if order == "last-first":
                frags.insert(0, frags.pop())
            elif order == "shuffled":
                random.Random(size).shuffle(frags)
            return frags

        def per_fragment(frags):
            defrag = IpDefragmenter()
            cost = _cpu(defrag.feed, frags[:-1])
            whole = defrag.feed(frags[-1])
            assert whole is not None
            assert len(whole.payload) + 8 == 8 * len(frags)  # UDP header
            assert defrag.bytes_buffered == 0 == defrag.overlaps_trimmed
            return cost

        small, big = schedule(4_000), schedule(64_000)
        assert len(big) == 8_001
        assert (min(per_fragment(big) for _ in range(2))
                < FLAT * min(per_fragment(small) for _ in range(5)))

    def test_a_full_datagram_table_costs_what_an_empty_one_does(self):
        """Eviction looks at the front of the age-ordered table only (it
        scanned every buffer for staleness, then ``min()``-scanned per
        eviction: 77 -> 718 us per new datagram)."""
        total = IpDefragmenter.MAX_DATAGRAMS + 2_000
        fragments = [_first_fragment(i, timestamp=i / 1e3)
                     for i in range(total)]
        empty = min(_cpu(IpDefragmenter().feed, fragments[:2_000])
                    for _ in range(3))
        defrag = IpDefragmenter()
        for frag in fragments[:-2_000]:
            defrag.feed(frag)
        assert len(defrag._buffers) == defrag.MAX_DATAGRAMS
        full = _cpu(defrag.feed, fragments[-2_000:])
        assert defrag.datagrams_evicted == 2_000
        assert len(defrag._buffers) == defrag.MAX_DATAGRAMS
        assert full < FLAT * empty


def _traced(feed, items) -> int:
    """Heap bytes still held by what ``feed`` kept of ``items`` (a lazy
    iterable: the packets themselves are gone when this returns)."""
    gc.collect()
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    for item in items:
        feed(item)
    gc.collect()
    held, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return held - base


class TestCapsBoundTheHeap:
    """A held byte used to cost 47-100 heap bytes the caps never saw."""

    def test_sparse_segments_hold_under_twice_the_gauge(self):
        reasm = StreamReassembler()
        record = memoryview(bytes(1500))  # what a pcap record would pin
        held = _traced(reasm.feed, (
            tcp_packet("6.6.6.6", "10.0.0.1", 4000, 80,
                       payload=record[i % 1500:][:1], seq=1_000 + 2 * i)
            for i in range(10_000)))
        assert reasm.bytes_buffered > 10_000 * 64
        assert held < 2 * reasm.bytes_buffered

    def test_sparse_fragment_flood_stays_under_twice_the_cap(self, monkeypatch):
        """8-byte fragments at every other slot, more than the byte cap
        admits: the gauge stays at the cap and the heap under a ceiling
        of twice it (8 MiB used to admit ~390 MB)."""
        cap = 1 << 20
        monkeypatch.setattr(IpDefragmenter, "MAX_TOTAL_BYTES", cap)
        defrag = IpDefragmenter()
        record = memoryview(bytes(1500))
        held = _traced(defrag.feed, (
            _first_fragment(i // 4_000, payload=record[i % 1400:][:8],
                            slot=1 + 2 * (i % 4_000))
            for i in range(12_000)))
        assert defrag.datagrams_evicted >= 1
        assert cap // 2 < defrag.bytes_buffered <= cap
        assert held < 2 * defrag.bytes_buffered


class TestBackwardsClock:
    def test_age_order_survives_timestamps_that_run_backwards(self, monkeypatch):
        """Capture timestamps that fall neither wedge the table (the caps
        still evict, one for one) nor starve the timeout (whatever is
        stale is at the front)."""
        monkeypatch.setattr(IpDefragmenter, "MAX_DATAGRAMS", 64)
        defrag = IpDefragmenter()
        for i in range(200):
            defrag.feed(_first_fragment(i, timestamp=1_000.0 - i))
            assert len(defrag._buffers) <= 64
        assert defrag.datagrams_evicted == 200 - 64
        stamps = [b.first_seen for b in defrag._buffers.values()]
        assert stamps == sorted(stamps) and stamps[0] <= 1_000.0
        # The clock moves on past the newest stamp: one arrival clears
        # every stale datagram, not just the one the cap asks for.
        defrag.feed(_first_fragment(999, timestamp=1_000.5 + defrag.TIMEOUT))
        assert len(defrag._buffers) == 1
        assert defrag.bytes_buffered == 8
