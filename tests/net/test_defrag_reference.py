"""``IpDefragmenter`` against the keep-everything reference.

Random fragment offsets and lengths, conflicting fills, MF=0 at random
positions (repeated, conflicting, fully covered), empty fragments, bytes
claimed past the 64 KiB end and interleaved idents: after every fragment
the real defragmenter must agree with ``NaiveDatagram`` — the same
``_insert`` the stream reference uses — on whether the datagram completed,
on its bytes, and on the trim, drop and retained-byte accounting (the
per-piece charge included).
"""

from hypothesis import given, settings, strategies as st

from naive_reassembly import NaiveDatagram, check_pieces
from repro.net.defrag import IpDefragmenter
from repro.net.layers import Ipv4
from repro.net.packet import Packet

PROTO = 253  # no transport decoder: the rebuilt payload is the datagram

_ident = st.sampled_from([1, 1, 1, 2])
#: anything goes: (ident, offset / 8, length, fill, MF=0)
_noise = st.tuples(
    _ident, st.one_of(st.integers(0, 12), st.just(8189)), st.integers(0, 40),
    st.integers(0, 255), st.sampled_from([False, False, True]))
#: an 8-byte tile of a 32-byte datagram, so that datagrams do complete
_tile = st.integers(0, 3).flatmap(lambda slot: st.tuples(
    _ident, st.just(slot), st.just(8), st.integers(0, 255),
    st.just(slot == 3)))
_fragment = st.one_of(_tile, _tile, _noise)


def _frag(ident, offset, payload, last, as_view):
    ip = Ipv4(src="1.1.1.1", dst="2.2.2.2", proto=PROTO, ident=ident,
              flags=0 if last else 1, frag_offset=offset // 8)
    return Packet(ip=ip, payload=memoryview(payload) if as_view else payload,
                  timestamp=1.0)


@settings(max_examples=300, deadline=None)
@given(fragments=st.lists(_fragment, min_size=12, max_size=40),
       as_view=st.booleans())
def test_defragmenter_matches_keep_everything_reference(fragments, as_view):
    defrag = IpDefragmenter()
    naive: dict[int, NaiveDatagram] = {}
    seen = trimmed = dropped = reassembled = 0
    for ident, slot, length, fill, last in fragments:
        offset = slot * 8
        payload = bytes((fill + i) & 0xFF for i in range(length))
        pkt = _frag(ident, offset, payload, last, as_view)
        if last and not offset:  # offset 0, MF=0: not a fragment at all
            assert defrag.feed(pkt) is pkt
            continue
        out = defrag.feed(pkt)
        seen += 1
        expected = None
        if offset + length > 65535:
            dropped += 1        # forged: claims bytes past any datagram
        else:
            datagram = naive.setdefault(ident, NaiveDatagram())
            cut = datagram.add(offset, payload, last)
            trimmed += cut
            dropped += bool(length) and cut == length
            expected = datagram.payload()
            if expected is not None:
                del naive[ident]
                reassembled += 1
        assert (out is None) == (expected is None)
        if out is not None:
            assert bytes(out.payload) == expected
            assert (out.ip.ident, out.ip.proto) == (ident, PROTO)
        assert defrag.fragments_seen == seen
        assert defrag.overlaps_trimmed == trimmed
        assert defrag.fragments_dropped == dropped
        assert defrag.datagrams_reassembled == reassembled
        assert defrag.datagrams_evicted == 0
        assert sorted(key[2] for key in defrag._buffers) == sorted(naive)
        assert defrag.bytes_buffered == sum(d.held() for d in naive.values())
        for key, buffer in defrag._buffers.items():
            assert buffer.total_len == naive[key[2]].total_len
            check_pieces(buffer, frontier=len(naive[key[2]].prefix()))
