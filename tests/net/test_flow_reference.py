"""Consume-and-release ``Stream`` against the keep-everything reference.

Random segmentation, reordering, overlap with conflicting bytes,
retransmission, pre-base segments, sequence wraparound, a small per-stream
cap and random ``release()`` points: after every step the real stream's
window must be the reference prefix minus what was released, with the
same frontier, trim totals, refusals and retained-byte accounting.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from naive_reassembly import NaiveStream
from repro.net.flow import Stream, StreamReassembler
from repro.net.packet import tcp_packet

SPAN = 160  # stream offsets the generated segments fall in

_segment = st.tuples(
    st.just("seg"),
    st.integers(0, SPAN - 1),            # offset from the ISN
    st.integers(1, 40),                  # length
    st.integers(0, 255),                 # fill: retransmissions disagree
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
                _, offset, length, fill = step
                payload = bytes((fill + i) & 0xFF for i in range(length))
                seq = (isn + offset) & 0xFFFFFFFF
                trimmed += naive.add(seq, payload)
                wire = memoryview(payload) if as_view else payload
                stream = reasm.feed(tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80,
                                               payload=wire, seq=seq))
            elif stream is not None:
                naive.release(step[1])
                reasm.release(stream, step[1])
            else:
                continue
            prefix = naive.prefix()
            assert stream.contiguous_length() == len(prefix)
            assert stream.released == naive.released
            assert stream.data() == prefix[stream.released:]
            assert reasm.overlaps_trimmed == trimmed
            assert reasm.out_of_window_segments == naive.out_of_window
            assert reasm.bytes_buffered == stream.buffered == naive.held()
            # Nothing pins the packet: pending segments are plain bytes.
            assert all(type(seg) is bytes
                       for seg in stream.segments.values())
            # Pending segments live strictly above the frontier.
            assert all(off > len(prefix) for off in stream.segments)
