"""What a stream still holds after the sensor has looked at it.

A stream is consumed: once a reanalysis round is handed on, everything
but the next round's overlap is released, so retention is bounded by
``reanalysis_overlap`` + unanalysed growth + pending out-of-order bytes —
not by the transfer — and nothing keeps a view of the packet (and so of
the pcap record it was decoded from).  And a stream ends: closed, whole
and analysed it is reaped on the spot, idle past ``Stream.IDLE_TIMEOUT``
it gets its final round and is reaped, so what the sensor holds follows
the connections that are open, not every flow it has ever seen.
"""

import gc
import pickle
import tracemalloc
import types

from repro.engines import generic_overflow_request, get_shellcode
from repro.net.flow import Stream
from repro.net.layers import TCP_ACK, TCP_FIN, TCP_SYN
from repro.net.packet import tcp_packet
from repro.nids import SemanticNids

MSS = 1460
LINE = b"Lorem ipsum dolor sit amet, consectetur adipiscing elit.\r\n"


def _transfer(nbytes, sport=40000, src="192.0.2.7", fin=False):
    """An in-order transfer of ``nbytes`` of text, as zero-copy views of
    one capture-sized buffer (what the pcap front end hands the sensor)."""
    wire = memoryview((LINE * (nbytes // len(LINE) + 1))[:nbytes])
    for off in range(0, nbytes, MSS):
        last = off + MSS >= nbytes
        yield tcp_packet(src, "198.51.100.1", sport, 80,
                         payload=wire[off:off + MSS], seq=1 + off,
                         flags=0x19 if fin and last else 0x18,
                         timestamp=off / 1e6)


def _buffers_reachable(root):
    """Every bytes-like object reachable from ``root`` through plain
    containers and instance dicts."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray, memoryview)):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


class TestRetentionBound:
    def test_long_transfer_holds_its_window_not_its_history(self):
        """4 MB in order, rounds never exhausted: after every packet the
        reassembler holds at most overlap + growth + one segment."""
        nids = SemanticNids(classification_enabled=False,
                            max_rounds_per_stream=1 << 20)
        bound = nids.reanalysis_overlap + nids.reanalysis_growth + MSS
        peak = 0
        for pkt in _transfer(Stream.MAX_BUFFER):
            nids.process_packet(pkt)
            peak = max(peak, nids.reassembler.bytes_buffered)
        assert nids.reanalysis_overlap < peak <= bound
        (stream,) = nids.reassembler.streams.values()
        assert stream.contiguous_length() == Stream.MAX_BUFFER
        assert stream.buffered == nids.reassembler.bytes_buffered
        assert nids.alerts == []

    def test_exhausted_rounds_stop_buffering(self):
        """Past ``max_rounds_per_stream`` no round will ever read the
        stream: its bytes are released as they become contiguous, so the
        bound holds there too (it used to buffer on, up to 4 MB)."""
        nids = SemanticNids(classification_enabled=False)
        rounds = nids.max_rounds_per_stream + 6        # 70 growth rounds
        bound = nids.reanalysis_overlap + nids.reanalysis_growth + MSS
        for pkt in _transfer(rounds * nids.reanalysis_growth):
            nids.process_packet(pkt)
            assert nids.reassembler.bytes_buffered <= bound
        (state,) = nids._stream_state.values()
        assert state.analysis_rounds == nids.max_rounds_per_stream
        (stream,) = nids.reassembler.streams.values()
        assert stream.contiguous_length() == rounds * nids.reanalysis_growth
        assert stream.released == stream.contiguous_length()
        assert nids.reassembler.bytes_buffered == 0
        nids.flush()                     # nothing left to finalize
        assert state.analysis_rounds == nids.max_rounds_per_stream

    def test_closed_flows_hold_one_copy_and_no_views(self):
        """2,000 closed 3 KB flows leave *nothing* reachable: no stream,
        no analysis state, no buffered byte, no view of a packet (each
        used to keep a copy of its payload, its ``Stream`` and its
        ``_StreamState`` until the 65,536-stream cap pushed it out)."""
        nids = SemanticNids(classification_enabled=False)
        flows, size = 2000, 3072
        for i in range(flows):
            for pkt in _transfer(size, sport=10000 + i,
                                 src=f"192.0.{i % 200}.{i // 200 + 1}",
                                 fin=True):
                nids.process_packet(pkt)
            assert len(nids.reassembler.streams) == 0
        assert nids._stream_state == {}
        assert nids.reassembler.bytes_buffered == 0
        assert nids.reassembler.reaped_closed == flows
        assert nids.registry.get(
            "repro_reassembly_active_streams").value == 0
        assert nids.stats.payloads_analyzed >= flows   # reaped, not skipped
        assert _buffers_reachable([nids.reassembler.streams,
                                   nids.reassembler._reaped,
                                   nids._stream_state]) == []
        assert nids.flush() == [] and nids.stats.streams_evicted == 0


EXPLOIT = generic_overflow_request(
    get_shellcode("classic-execve").assemble(), seed=1)


def _seg(sport, payload=b"", seq=1, flags=0x18, t=0.0, src="192.0.2.7"):
    return tcp_packet(src, "198.51.100.1", sport, 80, payload=payload,
                      seq=seq, flags=flags, timestamp=t)


class TestEndOfLife:
    def test_idle_stream_gets_the_round_a_flush_would_have_given_it(self):
        """A flow that never closes and never grows past a trigger keeps
        its exploit in an unexamined tail.  Left idle, it raises exactly
        the alert ``flush()`` raises (sender, ``last_seen`` stamp) — on
        the first packet that shows the capture clock has moved on — and
        is reaped with its state."""
        def sensor():
            nids = SemanticNids(classification_enabled=False,
                                reanalysis_growth=1 << 20)
            assert nids.process_packet(_seg(4000, EXPLOIT[:1], t=5.0)) == []
            assert nids.process_packet(
                _seg(4000, EXPLOIT[1:], seq=2, t=6.0)) == []
            return nids

        (flushed,) = sensor().flush()
        assert flushed.template == "linux_shell_spawn"
        assert (flushed.timestamp, flushed.source) == (6.0, "192.0.2.7")

        nids = sensor()
        quiet = 6.0 + Stream.IDLE_TIMEOUT
        assert nids.process_packet(_seg(4001, b"hi", t=quiet)) == []
        assert len(nids.reassembler.streams) == 2       # not idle *longer*
        # A bare ACK of an unknown flow allocates nothing, and still
        # moves the clock.
        (alert,) = nids.process_packet(_seg(4002, flags=TCP_ACK,
                                            t=quiet + 0.5))
        assert alert.format() == flushed.format()
        assert [k.sport for k in nids.reassembler.streams] == [4001]
        assert [k.sport for k in nids._stream_state] == [4001]
        assert nids.reassembler.reaped_idle == 1
        assert nids.flush() == [] and nids.alerts == [alert]

    def test_payload_after_a_close_is_analysed_and_counted(self):
        """A forged FIN ahead of the exploit ends the stream; the exploit
        then arrives on a reaped flow.  It is analysed as a new stream and
        the counter says it happened."""
        nids = SemanticNids(classification_enabled=False)
        nids.process_packet(_seg(4000, flags=TCP_SYN, seq=0))
        nids.process_packet(_seg(4000, b"GET /", seq=1))
        nids.process_packet(_seg(4000, flags=TCP_FIN | TCP_ACK, seq=6))
        assert len(nids.reassembler.streams) == 0
        (alert,) = nids.process_packet(_seg(4000, EXPLOIT, seq=6, t=1.0))
        assert alert.template == "linux_shell_spawn"
        assert nids.reassembler.segments_after_close == 1

    def test_exhausted_rounds_do_not_keep_a_closed_stream(self):
        nids = SemanticNids(classification_enabled=False,
                            max_rounds_per_stream=1)
        nids.process_packet(_seg(4000, b"a" * 10))
        nids.process_packet(_seg(4000, b"b" * 10, seq=11,
                                 flags=0x18 | TCP_FIN))
        assert len(nids.reassembler.streams) == 0 == len(nids._stream_state)
        assert nids.stats.payloads_analyzed == 1

    def test_flood_ends_under_a_fixed_heap_ceiling(self):
        """50,000 complete short flows plus 50,000 SYN-only half-opens
        spread over more than the idle limit: the traced heap ends under
        a fixed ceiling and the table is back at the live count.  (Kept
        until the cap, the same flood ended with 65,536 entries and
        73 MB traced; what is left now is the two tables' own slots,
        sized for the ~12,500 half-opens of one idle window.)"""
        flows, live = 50_000, 7
        span = 4 * Stream.IDLE_TIMEOUT
        nids = SemanticNids(classification_enabled=False)
        for sport in range(live):       # long-lived, refreshed below
            nids.process_packet(_seg(60000 + sport, b"keepalive"))
        gc.collect()
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        peak_streams = 0
        for i in range(flows):
            t = span * i / flows
            src = f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}"
            nids.process_packet(_seg(1234, flags=TCP_SYN, seq=0, t=t,
                                     src="172.16" + src[2:]))
            nids.process_packet(_seg(1234, flags=TCP_SYN, seq=0, t=t,
                                     src=src))
            nids.process_packet(_seg(1234, b"GET / HTTP/1.0\r\n\r\n",
                                     seq=1, flags=0x18 | TCP_FIN, t=t,
                                     src=src))
            if i % 100 == 0:
                nids.process_packet(_seg(60000 + i // 100 % live,
                                         b"keepalive", seq=1, t=t))
                peak_streams = max(peak_streams, len(nids.reassembler))
        # The flood stops; the live flows talk on until it has drained.
        for quiet in range(100, int(Stream.IDLE_TIMEOUT) + 200, 100):
            for sport in range(live):
                nids.process_packet(_seg(60000 + sport, b"keepalive",
                                         seq=1, t=span + quiet))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(nids.reassembler) == len(nids._stream_state) == live
        assert nids.registry.get(
            "repro_reassembly_active_streams").value == live
        assert nids.reassembler.reaped_closed == flows
        assert nids.reassembler.reaped_idle == flows
        assert nids.stats.streams_evicted == 0 == nids.stats.state_evicted
        # Steady state: a quarter of the half-opens (one idle window's
        # worth of a flood spread over four) plus the live flows.
        assert flows // 4 <= peak_streams <= flows // 4 + live + 2
        assert held - base < 8 << 20
        assert nids.alerts == []

    def test_checkpoint_carries_a_closed_but_incomplete_stream(self):
        """FIN seen, data still missing: the stream is live, rides in the
        snapshot with its ``fin_offset``, and completes — alert, reap —
        in the resumed sensor exactly as in the original."""
        def sensor():
            nids = SemanticNids(classification_enabled=False)
            nids.process_packet(_seg(4000, flags=TCP_SYN, seq=0))
            nids.process_packet(_seg(4000, EXPLOIT[:100], seq=1))
            nids.process_packet(_seg(4000, flags=TCP_FIN | TCP_ACK,
                                     seq=1 + len(EXPLOIT), t=1.0))
            nids.process_packet(_seg(4000, EXPLOIT[200:], seq=201, t=2.0))
            (stream,) = nids.reassembler.streams.values()
            assert stream.fin_offset == len(EXPLOIT)
            assert not stream.complete() and nids.alerts == []
            return nids

        original, resumed = sensor(), SemanticNids(
            classification_enabled=False)
        resumed.restore_state(pickle.loads(pickle.dumps(
            sensor().snapshot_state())))
        (twin,) = resumed.reassembler.streams.values()
        assert twin.fin_offset == len(EXPLOIT) and twin.pieces()
        hole = _seg(4000, EXPLOIT[100:200], seq=101, t=3.0)
        for nids in (original, resumed):
            (alert,) = nids.process_packet(hole)
            assert alert.template == "linux_shell_spawn"
            assert len(nids.reassembler.streams) == 0 == len(
                nids._stream_state)
            assert nids.reassembler.bytes_buffered == 0
        assert resumed.alerts[0].format() == original.alerts[0].format()
