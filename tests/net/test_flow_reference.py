"""Consume-and-release ``Stream`` against the keep-everything reference.

Random segmentation, reordering, overlap with conflicting bytes,
retransmission, pre-base segments, sequence wraparound, FIN/RST at random
positions (riding on data, bare, repeated, ahead of holes), a small
per-stream cap and random ``release()`` points: after every step the real
stream's window must be the reference prefix minus what was released,
with the same frontier, close offset, completeness, trim totals, refusals
and retained-byte accounting (the per-piece charge included).  A second property drives the whole sensor
and checks the bytes handed to analysis — and the moment a stream is
reaped — against the same reference.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from naive_reassembly import NaiveStream, check_pieces
from repro.net.flow import FlowKey, Stream, StreamReassembler
from repro.net.layers import TCP_FIN, TCP_RST, TCP_SYN
from repro.net.packet import tcp_packet
from repro.nids import SemanticNids

SPAN = 160  # stream offsets the generated segments fall in

_segment = st.tuples(
    st.just("seg"),
    st.integers(0, SPAN - 1),            # offset from the ISN
    st.integers(0, 40),                  # length (0: a bare segment)
    st.integers(0, 255),                 # fill: retransmissions disagree
    st.sampled_from([0x18] * 5 + [0x18 | TCP_FIN, 0x10 | TCP_FIN, TCP_RST]),
)
_release = st.tuples(st.just("release"), st.integers(-5, SPAN + 40))
_steps = st.lists(st.one_of(_segment, _segment, _segment, _release),
                  min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(steps=_steps,
       isn=st.sampled_from([1000, 0xFFFFFFB0, 0x7FFFFFF0]),
       cap=st.sampled_from([Stream.MAX_BUFFER, 96]),
       as_view=st.booleans())
def test_stream_matches_keep_everything_reference(steps, isn, cap, as_view):
    with mock.patch.object(Stream, "MAX_BUFFER", cap), \
            mock.patch.object(NaiveStream, "MAX_BUFFER", cap):
        reasm = StreamReassembler()
        naive = NaiveStream()
        stream = None
        trimmed = 0
        for step in steps:
            if step[0] == "seg":
                _, offset, length, fill, flags = step
                payload = bytes((fill + i) & 0xFF for i in range(length))
                seq = (isn + offset) & 0xFFFFFFFF
                wire = memoryview(payload) if as_view else payload
                fed = reasm.feed(tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80,
                                            payload=wire, seq=seq,
                                            flags=flags))
                if stream is None and not payload:
                    # A bare segment of an unknown flow allocates nothing.
                    assert fed is None and len(reasm) == 0
                    continue
                stream = fed
                trimmed += naive.add(seq, payload, flags)
            elif stream is not None:
                naive.release(step[1])
                reasm.release(stream, step[1])
            else:
                continue
            prefix = naive.prefix()
            assert stream.contiguous_length() == len(prefix)
            assert stream.released == naive.released
            assert stream.fin_offset == naive.fin_offset()
            assert stream.fin_seen == bool(naive.closes)
            assert stream.complete() == naive.complete()
            assert stream.data() == prefix[stream.released:]
            assert reasm.overlaps_trimmed == trimmed
            assert reasm.out_of_window_segments == naive.out_of_window
            assert reasm.bytes_buffered == stream.buffered == naive.held()
            check_pieces(stream, frontier=len(prefix))


KEY = FlowKey("1.1.1.1", "2.2.2.2", 1000, 80, 6)
ISN = 5000


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_segment, min_size=1, max_size=40),
       syn_first=st.booleans())
def test_analysis_sees_the_reference_bytes_until_the_stream_is_reaped(
        steps, syn_first):
    """One flow through the whole sensor.  Every round's payload is the
    tail of the reference prefix and starts no later than the last round
    ended (no byte skipped); the stream is reaped exactly when the
    reference says it is closed and whole, with its closing round handed
    on; whatever arrives afterwards starts a new stream held to the same
    rules — payload after a close is analysed, never dropped."""
    nids = SemanticNids(classification_enabled=False, reanalysis_growth=16,
                        reanalysis_overlap=8, max_rounds_per_stream=1 << 20)
    handed = []
    analyze = nids._analyze_payload
    nids._analyze_payload = lambda pkt, payload, state: (
        handed.append(bytes(payload)), analyze(pkt, payload, state))[1]
    naive, covered, reaps = None, 0, 0

    def check_rounds():
        nonlocal covered
        prefix = naive.prefix()
        for payload in handed:
            start = len(prefix) - len(payload)
            assert payload == prefix[start:] and start <= covered
            covered = len(prefix)
        handed.clear()

    if syn_first:
        steps = [("seg", -1, 0, 0, TCP_SYN)] + steps
    for _, offset, length, fill, flags in steps:
        payload = bytes((fill + i) & 0xFF for i in range(length))
        seq = ISN + 1 + offset
        pkt = tcp_packet(KEY.src, KEY.dst, KEY.sport, KEY.dport,
                         payload=payload, seq=seq, flags=flags)
        if naive is None:
            if not payload and not flags & TCP_SYN:
                nids.process_packet(pkt)
                assert len(nids.reassembler) == 0 == len(nids._stream_state)
                continue
            naive, covered = NaiveStream(), 0
        elif (seq - naive.base_seq) & 0xFFFFFFFF >= 1 << 31:
            continue  # rebasing is the stream-level property's business
        naive.add(seq, payload, flags)
        nids.process_packet(pkt)
        check_rounds()
        if naive.complete():
            assert covered == len(naive.prefix())
            assert len(nids.reassembler) == 0 == len(nids._stream_state)
            assert nids.reassembler.bytes_buffered == 0
            naive, reaps = None, reaps + 1
        else:
            assert list(nids.reassembler.streams) == [KEY]
            assert list(nids._stream_state) == [KEY]
    assert nids.reassembler.reaped_closed == reaps
    nids.flush()
    if naive is not None:
        check_rounds()
        assert covered == len(naive.prefix())
    assert nids.alerts == []
