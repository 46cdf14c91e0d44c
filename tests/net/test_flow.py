"""Tests for repro.net.flow: flow keys and TCP reassembly."""

import pytest
from hypothesis import given, strategies as st

from repro.net.flow import FlowKey, Stream, StreamReassembler
from repro.net.layers import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN
from repro.net.packet import tcp_packet, udp_packet


def _seg(payload, seq, flags=0x18, src="1.1.1.1", sport=1000):
    return tcp_packet(src, "2.2.2.2", sport, 80, payload=payload,
                      flags=flags, seq=seq)


class TestFlowKey:
    def test_of_packet(self):
        key = FlowKey.of(_seg(b"x", 1))
        assert key.src == "1.1.1.1"
        assert key.dport == 80

    def test_reverse(self):
        key = FlowKey.of(_seg(b"x", 1))
        rev = key.reverse()
        assert rev.src == key.dst and rev.sport == key.dport
        assert rev.reverse() == key

    def test_of_non_flow_packet(self):
        from repro.net.packet import icmp_packet
        with pytest.raises(ValueError):
            FlowKey.of(icmp_packet("1.1.1.1", "2.2.2.2"))

    def test_str(self):
        assert "1.1.1.1:1000->2.2.2.2:80/6" == str(FlowKey.of(_seg(b"", 1)))


class TestStreamReassembly:
    def test_in_order(self):
        r = StreamReassembler()
        r.feed(_seg(b"hello ", 100))
        stream = r.feed(_seg(b"world", 106))
        assert stream.data() == b"hello world"

    def test_out_of_order(self):
        r = StreamReassembler()
        r.feed(_seg(b"hello ", 100))
        r.feed(_seg(b"!", 111))
        stream = r.feed(_seg(b"world", 106))
        assert stream.data() == b"hello world!"

    def test_gap_returns_prefix_only(self):
        r = StreamReassembler()
        r.feed(_seg(b"abc", 100))
        stream = r.feed(_seg(b"xyz", 110))  # hole at 103..109
        assert stream.data() == b"abc"

    def test_retransmission_first_writer_wins(self):
        r = StreamReassembler()
        r.feed(_seg(b"ORIGINAL", 100))
        stream = r.feed(_seg(b"EVILDATA", 100))
        assert stream.data() == b"ORIGINAL"

    def test_partial_overlap_first_writer_wins(self):
        r = StreamReassembler()
        r.feed(_seg(b"abcd", 100))
        stream = r.feed(_seg(b"XXefgh", 102))  # overlaps abcd's tail
        assert stream.data() == b"abcdefgh"

    def test_overlap_with_existing_tail(self):
        r = StreamReassembler()
        r.feed(_seg(b"cdef", 102))
        stream = r.feed(_seg(b"abXX", 100))  # head new, tail overlaps
        assert stream.data() == b"abcdef"

    def test_syn_consumes_sequence_number(self):
        r = StreamReassembler()
        r.feed(_seg(b"", 99, flags=TCP_SYN))
        stream = r.feed(_seg(b"data", 100, flags=TCP_ACK | 0x08))
        assert stream.data() == b"data"

    def test_fin_marks_stream(self):
        r = StreamReassembler()
        r.feed(_seg(b"bye", 100))
        stream = r.feed(_seg(b"", 103, flags=TCP_FIN | TCP_ACK))
        assert stream.fin_seen
        assert [s for s in r.streams.values() if s.fin_seen] == [stream]

    def test_directions_are_separate_streams(self):
        r = StreamReassembler()
        r.feed(_seg(b"request", 100))
        back = tcp_packet("2.2.2.2", "1.1.1.1", 80, 1000, payload=b"response",
                          flags=0x18, seq=500)
        r.feed(back)
        assert len(r) == 2

    def test_non_tcp_counted_not_buffered(self):
        r = StreamReassembler()
        assert r.feed(udp_packet("1.1.1.1", "2.2.2.2", 1, 2, b"x")) is None
        assert r.non_tcp_packets == 1
        assert len(r) == 0

    def test_eviction(self):
        r = StreamReassembler(max_streams=2)
        for i in range(3):
            pkt = _seg(b"x", 100, sport=2000 + i)
            pkt.timestamp = float(i)
            r.feed(pkt)
        assert len(r) == 2
        assert r.evicted == 1
        # the oldest (sport=2000) was evicted
        assert r.get(FlowKey("1.1.1.1", "2.2.2.2", 2000, 80, 6)) is None

    def test_buffer_cap(self):
        stream = Stream(key=FlowKey("a", "b", 1, 2))
        pkt = _seg(b"in-range", 100)
        stream.add(pkt)
        far = _seg(b"too-far", 100 + Stream.MAX_BUFFER + 10)
        stream.add(far)
        assert stream.buffered == len(b"in-range")

    def test_stats_update(self):
        r = StreamReassembler()
        pkt = _seg(b"abc", 100)
        pkt.timestamp = 5.0
        stream = r.feed(pkt)
        assert stream.stats.packets == 1
        assert stream.stats.bytes == 3
        assert stream.stats.first_seen == 5.0


class TestAssemblyCache:
    """data() is incrementally assembled and cached between calls."""

    def test_repeated_calls_return_cached_object(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"hello", 100))
        assert stream.data() is stream.data()  # no rebuild per call

    def test_cache_extends_as_segments_land(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"ab", 100))
        assert stream.data() == b"ab"
        r.feed(_seg(b"ef", 104))  # hole at 102..103
        assert stream.data() == b"ab"
        r.feed(_seg(b"cd", 102))  # hole filled: prefix jumps over both
        assert stream.data() == b"abcdef"

    def test_contiguous_length_tracks_data(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"abc", 100))
        r.feed(_seg(b"xyz", 110))  # disjoint tail, not contiguous
        assert stream.contiguous_length() == 3
        assert stream.contiguous_length() == len(stream.data())

    def test_overlap_does_not_corrupt_cache(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"abcd", 100))
        assert stream.data() == b"abcd"
        r.feed(_seg(b"XXefgh", 102))  # overlapping retransmit + new tail
        assert stream.data() == b"abcdefgh"

    def test_rebase_invalidates_cache(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"world", 1000))
        assert stream.data() == b"world"
        # An earlier segment arrives: base shifts down, offsets move.
        r.feed(_seg(b"hello", 995))
        assert stream.data() == b"helloworld"
        assert stream.contiguous_length() == 10


class TestBareSegments:
    """A payload-less, non-SYN segment of an unknown flow (the pure ACKs
    of a reverse direction, the trailing ACK of a reaped close, a stray
    FIN or RST) has nothing to reassemble and allocates nothing."""

    @pytest.mark.parametrize("flags", [TCP_ACK, TCP_FIN | TCP_ACK, TCP_RST])
    def test_unknown_flow_allocates_nothing(self, flags):
        r = StreamReassembler()
        assert r.feed(_seg(b"", 100, flags=flags)) is None
        assert len(r) == 0 and r.non_tcp_packets == 0

    def test_syn_still_opens_a_stream(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"", 99, flags=TCP_SYN))
        assert stream is not None and stream.base_seq == 100 and len(r) == 1

    @pytest.mark.parametrize("ack_seq", [100, 90, 140])
    def test_ack_before_data_leaves_the_base_to_the_data(self, ack_seq):
        """The ACK used to fix the base at *its* sequence number; a stale
        or advanced one then left a hole before (or lost) the data."""
        r = StreamReassembler()
        assert r.feed(_seg(b"", ack_seq, flags=TCP_ACK)) is None
        stream = r.feed(_seg(b"hello ", 100))
        assert stream.base_seq == 100 and stream.stats.packets == 1
        assert r.feed(_seg(b"world", 106)).data() == b"hello world"

    def test_ack_after_data_is_counted_on_its_stream(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"hello", 100))
        assert r.feed(_seg(b"", 105, flags=TCP_ACK)) is stream
        assert stream.stats.packets == 2 and stream.stats.bytes == 5
        assert stream.base_seq == 100 and stream.data() == b"hello"
        assert not stream.fin_seen


class TestStreamLifecycle:
    """open -> closed -> complete -> reaped, and the idle leg."""

    def test_fin_closes_at_the_offset_it_covers(self):
        r = StreamReassembler()
        r.feed(_seg(b"bye", 100))
        stream = r.feed(_seg(b"!", 103, flags=TCP_FIN | TCP_ACK))
        assert stream.fin_offset == 4 and stream.complete()

    def test_fin_ahead_of_missing_data_completes_nothing(self):
        r = StreamReassembler()
        r.feed(_seg(b"abc", 100))
        stream = r.feed(_seg(b"", 109, flags=TCP_FIN | TCP_ACK))
        assert stream.fin_seen and not stream.complete()   # short frontier
        r.feed(_seg(b"ghi", 106))
        assert not stream.complete()                       # hole at 103
        r.feed(_seg(b"def", 103))
        assert stream.complete() and stream.data() == b"abcdefghi"

    def test_lowest_close_wins_and_moves_with_the_base(self):
        r = StreamReassembler()
        r.feed(_seg(b"cd", 102))
        stream = r.feed(_seg(b"", 105, flags=TCP_RST))     # FIN + 1
        r.feed(_seg(b"", 104, flags=TCP_FIN | TCP_ACK))
        assert stream.fin_offset == 2
        r.feed(_seg(b"ab", 100))                           # rebase by 2
        assert stream.fin_offset == 4 and stream.complete()

    def test_reap_frees_the_entry_and_the_budget(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"bye", 100, flags=0x18 | TCP_FIN))
        other = r.feed(_seg(b"stay", 100, sport=1001))
        r.reap(stream, "closed")
        assert list(r.streams.values()) == [other]
        assert r.bytes_buffered == 4
        assert (r.reaped_closed, r.reaped_idle) == (1, 0)

    def test_payload_after_a_reap_opens_a_new_stream_and_is_counted(self):
        r = StreamReassembler()
        r.reap(r.feed(_seg(b"GET /", 100, flags=0x18 | TCP_FIN)), "closed")
        assert r.feed(_seg(b"", 106, flags=TCP_ACK)) is None   # trailing ACK
        assert r.segments_after_close == 0
        late = r.feed(_seg(b"more", 105))
        assert late.data() == b"more" and late.base_seq == 105
        assert r.segments_after_close == 1
        r.feed(_seg(b"!", 109))                # joins the new stream
        assert r.segments_after_close == 1

    def test_a_new_connection_on_a_reaped_flow_is_not_after_close(self):
        r = StreamReassembler()
        r.reap(r.feed(_seg(b"x", 100, flags=0x18 | TCP_FIN)), "closed")
        r.feed(_seg(b"", 7000, flags=TCP_SYN))
        r.feed(_seg(b"again", 7001))
        assert r.segments_after_close == 0

    def test_reaped_flows_are_remembered_up_to_a_bound(self):
        r = StreamReassembler()
        for i in range(r.REAPED_MEMORY + 10):
            r.reap(r.feed(_seg(b"x", 1, sport=i)), "idle")
        assert len(r._reaped) == r.REAPED_MEMORY
        r.feed(_seg(b"y", 2, sport=0))         # forgotten: not counted
        r.feed(_seg(b"y", 2, sport=r.REAPED_MEMORY + 9))
        assert r.segments_after_close == 1

    def test_idle_looks_at_the_least_recent_stream_only(self):
        r = StreamReassembler()
        assert r.idle(1e9) is None
        for i, sport in enumerate([1000, 1001, 1000]):
            pkt = _seg(b"x", 100 + i, sport=sport)
            pkt.timestamp = 10.0 * i
            r.feed(pkt)
        # 1001 (fed at t=10) is now the front; 1000 was refreshed at t=20.
        assert r.idle(10.0 + Stream.IDLE_TIMEOUT) is None
        front = r.idle(10.5 + Stream.IDLE_TIMEOUT)
        assert front.key.sport == 1001
        r.reap(front, "idle")
        assert r.idle(10.5 + Stream.IDLE_TIMEOUT) is None
        assert r.idle(20.5 + Stream.IDLE_TIMEOUT).key.sport == 1000
        assert r.reaped_idle == 1


@given(st.binary(min_size=1, max_size=300), st.randoms())
def test_reassembly_segmentation_property(data, rnd):
    """Any segmentation of a byte stream, delivered in any order,
    reassembles to the original bytes."""
    cuts = sorted(rnd.sample(range(1, len(data)), min(5, len(data) - 1))) if len(data) > 1 else []
    bounds = [0] + cuts + [len(data)]
    segments = [(bounds[i], data[bounds[i]:bounds[i + 1]])
                for i in range(len(bounds) - 1)]
    rnd.shuffle(segments)
    r = StreamReassembler()
    stream = None
    for offset, chunk in segments:
        stream = r.feed(_seg(chunk, 1000 + offset))
    assert stream.data() == data


class TestReassemblerHardening:
    """Eviction callbacks, overlap counters, and byte-budget accounting."""

    def test_on_evict_callback_reports_victims(self):
        evicted = []
        r = StreamReassembler(max_streams=2, on_evict=evicted.append)
        for i in range(4):
            pkt = _seg(b"x", 100, sport=3000 + i)
            pkt.timestamp = float(i)
            r.feed(pkt)
        assert r.evicted == 2
        assert [k.sport for k in evicted] == [3000, 3001]

    def test_overlap_trim_counter(self):
        r = StreamReassembler()
        r.feed(_seg(b"abcd", 100))
        r.feed(_seg(b"XXef", 102))  # 2 bytes re-sent
        assert r.overlaps_trimmed == 2

    def test_bytes_buffered_accounting(self):
        r = StreamReassembler()
        r.feed(_seg(b"abcd", 100))
        r.feed(_seg(b"efgh", 104, sport=1001))
        assert r.bytes_buffered == 8
        r.feed(_seg(b"abcd", 100))  # full duplicate: nothing stored
        assert r.bytes_buffered == 8

    def test_byte_budget_evicts_oldest_not_current(self, monkeypatch):
        monkeypatch.setattr(StreamReassembler, "MAX_TOTAL_BYTES", 1000)
        evicted = []
        r = StreamReassembler(on_evict=evicted.append)
        for i in range(5):
            pkt = _seg(b"z" * 400, 100, sport=4000 + i)
            pkt.timestamp = float(i)
            r.feed(pkt)
        assert r.bytes_buffered <= 1000
        assert r.evicted >= 2
        # the stream being fed is never its own eviction victim
        assert all(k.sport != 4004 for k in evicted)

    def test_single_giant_stream_does_not_over_evict(self, monkeypatch):
        """Regression: when the spared (current) stream alone exceeds the
        byte budget, the eviction loop used to evict every *other* stream
        on every segment — pure loss, since the total could never get
        under the cap.  The clamp stops once only over-budget spared
        bytes remain."""
        monkeypatch.setattr(StreamReassembler, "MAX_TOTAL_BYTES", 1000)
        evicted = []
        r = StreamReassembler(on_evict=evicted.append)
        # Two small bystander flows (oldest first)...
        a = _seg(b"a" * 100, 100, sport=5001)
        a.timestamp = 0.0
        r.feed(a)
        b = _seg(b"b" * 100, 100, sport=5002)
        b.timestamp = 1.0
        r.feed(b)
        # ...then one flow grows past the whole budget by itself.
        for i in range(5):
            pkt = _seg(b"z" * 300, 100 + i * 300, sport=5003)
            pkt.timestamp = 2.0 + i
            r.feed(pkt)
        # While the giant was still under the cap, budget pressure evicted
        # the oldest bystander; once the giant ALONE exceeded the cap,
        # eviction stopped — the second bystander survives, because
        # evicting it could never get the total under budget anyway.
        assert r.evicted == 1
        assert [k.sport for k in evicted] == [5001]
        assert len(r) == 2
        giant = r.get(FlowKey("1.1.1.1", "2.2.2.2", 5003, 80, 6))
        assert giant is not None and giant.buffered == 1500
        assert r.get(FlowKey("1.1.1.1", "2.2.2.2", 5002, 80, 6)) is not None

    def test_eviction_counter_stays_accurate_under_clamp(self, monkeypatch):
        monkeypatch.setattr(StreamReassembler, "MAX_TOTAL_BYTES", 500)
        reg_evictions = []
        r = StreamReassembler(on_evict=reg_evictions.append)
        for i in range(3):
            pkt = _seg(b"y" * 400, 100, sport=6000 + i)
            pkt.timestamp = float(i)
            r.feed(pkt)
        # every eviction the counter reports had a real victim
        assert r.evicted == len(reg_evictions)


class TestConsumeAndRelease:
    """A stream holds its analysis window, not its history."""

    def test_release_drops_prefix_and_lowers_the_gauge(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"0123456789", 100))
        copy = stream.data()
        r.release(stream, 6)
        assert stream.released == 6
        assert stream.data() == b"6789" and stream.data() is not copy
        assert stream.contiguous_length() == 10   # the frontier stays put
        assert stream.buffered == r.bytes_buffered == 4
        r.release(stream, 3)                      # never moves backwards
        r.release(stream, 99)                     # clamped to the frontier
        assert stream.released == 10 and r.bytes_buffered == 0

    def test_released_bytes_still_win_against_retransmission(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"abcdefgh", 100))
        r.release(stream, 8)
        r.feed(_seg(b"XXXXXXXXij", 100))  # 8 bytes re-sent, 2 new
        assert r.overlaps_trimmed == 8
        assert stream.data() == b"ij"
        assert stream.contiguous_length() == 10

    def test_only_out_of_order_segments_wait_in_segments(self):
        r = StreamReassembler()
        stream = r.feed(_seg(memoryview(b"ab"), 100))
        assert stream.pieces() == []
        r.feed(_seg(memoryview(b"ef"), 104))
        assert stream.pieces() == [(4, b"ef")]
        assert type(stream.pieces()[0][1]) is bytearray  # no view of the packet
        r.feed(_seg(memoryview(b"cd"), 102))
        assert stream.pieces() == [] and stream.data() == b"abcdef"

    def test_pickle_carries_released_and_one_copy(self):
        import pickle
        r = StreamReassembler()
        stream = r.feed(_seg(b"hello world", 100))
        r.feed(_seg(b"later", 200))
        r.release(stream, 6)
        assert stream.data() == b"world"  # materialize the cached copy
        blob = pickle.dumps(stream)
        assert blob.count(b"world") == 1
        back = pickle.loads(blob)
        assert (back.released, back.data(), back.pieces(), back.buffered) \
            == (6, b"world", [(100, b"later")], 10 + Stream.PIECE_OVERHEAD)


class TestOutOfWindowIsLoud:
    """Segments the stream cannot place are counted, not silently lost."""

    def test_beyond_the_cap(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"in-range", 100))
        r.feed(_seg(b"too-far", 100 + Stream.MAX_BUFFER))
        assert r.out_of_window_segments == stream.out_of_window == 1
        assert r.bytes_buffered == len(b"in-range")

    def test_far_before_the_base(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"base", Stream.MAX_BUFFER + 100))
        r.feed(_seg(b"ancient", 100))
        assert r.out_of_window_segments == 1
        assert stream.data() == b"base"

    def test_before_the_base_after_a_release(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"world", 1000))
        r.release(stream, 3)
        r.feed(_seg(b"hello", 995))  # would rebase; the prefix is gone
        assert r.out_of_window_segments == 1
        assert stream.released == 3 and stream.data() == b"ld"
        assert stream.contiguous_length() == 5


class TestRecencyOrder:
    def test_refed_stream_moves_behind_newer_ones(self):
        evicted = []
        r = StreamReassembler(max_streams=2, on_evict=evicted.append)
        for t, sport in enumerate([7000, 7001, 7000, 7002]):
            pkt = _seg(b"x", 100 + t, sport=sport)
            pkt.timestamp = float(t)
            r.feed(pkt)
        assert [k.sport for k in evicted] == [7001]
        assert [k.sport for k in r.streams] == [7000, 7002]
