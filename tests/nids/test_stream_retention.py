"""What a stream still holds after the sensor has looked at it.

A stream is consumed: once a reanalysis round is handed on, everything
but the next round's overlap is released, so retention is bounded by
``reanalysis_overlap`` + unanalysed growth + pending out-of-order bytes —
not by the transfer — and nothing keeps a view of the packet (and so of
the pcap record it was decoded from).
"""

import gc
import types

from repro.net.flow import Stream
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
        """2,000 closed 3 KB flows: one copy of each payload is all that
        stays (it was three: segment views pinning their pcap records,
        the assembled prefix, and the cached ``data()`` copy)."""
        nids = SemanticNids(classification_enabled=False)
        flows, size = 2000, 3072
        for i in range(flows):
            for pkt in _transfer(size, sport=10000 + i,
                                 src=f"192.0.{i % 200}.{i // 200 + 1}",
                                 fin=True):
                nids.process_packet(pkt)
        nids.flush()
        streams = list(nids.reassembler.streams.values())
        assert len(streams) == flows and all(s.fin_seen for s in streams)
        assert nids.reassembler.bytes_buffered <= flows * size
        held = [buf for s in streams for buf in _buffers_reachable(s)]
        assert not any(isinstance(buf, memoryview) for buf in held)
        assert sum(len(buf) for buf in held) <= flows * size
