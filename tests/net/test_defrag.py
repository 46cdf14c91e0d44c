"""Tests for IPv4 fragment reassembly and the fragmentation evasion."""

import random

import pytest

from repro.net.defrag import IpDefragmenter, fragment_packet
from repro.net.packet import tcp_packet, udp_packet


def _exploit_packet(payload=b"A" * 500):
    return tcp_packet("6.6.6.6", "10.0.0.1", 4000, 80, payload=payload,
                      timestamp=1.0)


class TestFragmentation:
    def test_unfragmented_passes_through(self):
        defrag = IpDefragmenter()
        pkt = _exploit_packet()
        assert defrag.feed(pkt) is pkt

    def test_fragment_sizes_rounded_to_8(self):
        frags = fragment_packet(_exploit_packet(), fragment_size=100)
        for frag in frags[:-1]:
            assert len(frag.payload) % 8 == 0

    def test_offsets_and_flags(self):
        frags = fragment_packet(_exploit_packet(), fragment_size=128)
        assert frags[0].ip.frag_offset == 0
        assert all(f.ip.flags & 1 for f in frags[:-1])  # MF on all but last
        assert not (frags[-1].ip.flags & 1)
        offsets = [f.ip.frag_offset * 8 for f in frags]
        assert offsets == sorted(offsets)

    def test_same_ident(self):
        frags = fragment_packet(_exploit_packet(), fragment_size=64)
        assert len({f.ip.ident for f in frags}) == 1


class TestReassembly:
    def _roundtrip(self, payload, size, shuffle_seed=None):
        original = _exploit_packet(payload)
        frags = fragment_packet(original, fragment_size=size)
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(frags)
        defrag = IpDefragmenter()
        results = [defrag.feed(f) for f in frags]
        completed = [r for r in results if r is not None]
        assert len(completed) == 1
        return completed[0]

    def test_in_order(self):
        out = self._roundtrip(b"X" * 300, 64)
        assert out.payload == b"X" * 300
        assert out.sport == 4000 and out.dport == 80

    def test_out_of_order(self):
        payload = bytes(range(256)) * 3
        out = self._roundtrip(payload, 64, shuffle_seed=3)
        assert out.payload == payload

    def test_transport_header_restored(self):
        out = self._roundtrip(b"GET /x HTTP/1.0\r\n\r\n" + b"p" * 200, 64)
        assert out.is_tcp
        assert out.payload.startswith(b"GET /x")

    def test_udp_fragments(self):
        pkt = udp_packet("1.1.1.1", "2.2.2.2", 500, 53, b"q" * 200)
        pkt.timestamp = 2.0
        frags = fragment_packet(pkt, fragment_size=64)
        defrag = IpDefragmenter()
        completed = [r for r in (defrag.feed(f) for f in frags) if r]
        assert completed[0].is_udp
        assert completed[0].payload == b"q" * 200

    def test_missing_fragment_never_completes(self):
        frags = fragment_packet(_exploit_packet(b"Z" * 400), fragment_size=64)
        defrag = IpDefragmenter()
        for frag in frags[:-2] + frags[-1:]:  # drop one middle fragment
            assert defrag.feed(frag) is None

    def test_interleaved_datagrams(self):
        a = fragment_packet(_exploit_packet(b"A" * 200), fragment_size=64)
        b_pkt = tcp_packet("7.7.7.7", "10.0.0.1", 4001, 80, payload=b"B" * 200)
        b_pkt.ip.ident = 0x7777
        b = fragment_packet(b_pkt, fragment_size=64)
        defrag = IpDefragmenter()
        done = []
        for frag in [x for pair in zip(a, b) for x in pair]:
            result = defrag.feed(frag)
            if result is not None:
                done.append(result)
        assert len(done) == 2
        payloads = {bytes(d.payload[:1]) for d in done}
        assert payloads == {b"A", b"B"}

    def test_overlap_first_writer_wins(self):
        frags = fragment_packet(_exploit_packet(b"O" * 160), fragment_size=64)
        evil = fragment_packet(_exploit_packet(b"E" * 160), fragment_size=64)
        defrag = IpDefragmenter()
        defrag.feed(frags[0])
        defrag.feed(evil[0])      # duplicate offset 0 with different bytes
        defrag.feed(frags[1])
        out = defrag.feed(frags[2])
        assert out is not None
        # transport header decodes, payload content from the first writer
        assert b"E" not in out.payload

    def test_counters(self):
        frags = fragment_packet(_exploit_packet(b"C" * 200), fragment_size=64)
        defrag = IpDefragmenter()
        for frag in frags:
            defrag.feed(frag)
        assert defrag.fragments_seen == len(frags)
        assert defrag.datagrams_reassembled == 1


class TestEvasionResistance:
    def test_fragmented_exploit_detected(self):
        """The Ptacek-Newsham fragmentation evasion does not work here."""
        from repro.engines import EXPLOITS, build_exploit_request
        from repro.nids import SemanticNids

        request = build_exploit_request(EXPLOITS[0], seed=1)
        pkt = tcp_packet("6.6.6.6", "10.10.0.250", 4000, 21,
                         payload=request, timestamp=1.0)
        frags = fragment_packet(pkt, fragment_size=96)
        random.Random(1).shuffle(frags)
        nids = SemanticNids(classification_enabled=False)
        nids.process_trace(frags)
        assert "linux_shell_spawn" in nids.alerts_by_template()


def _raw_frag(pkt, offset, data, last, ident=0x5151):
    """Hand-built fragment carrying arbitrary raw IP payload bytes."""
    from repro.net.layers import Ipv4
    from repro.net.packet import Packet

    ip = Ipv4(src=pkt.ip.src, dst=pkt.ip.dst, proto=pkt.ip.proto,
              ident=ident, flags=0 if last else 1, frag_offset=offset // 8)
    return Packet(ip=ip, payload=data, timestamp=pkt.timestamp)


class TestAdversarialReassembly:
    """Regressions for the overlap-handling bugs plus bounded memory."""

    def test_fully_covered_last_fragment_still_completes(self):
        # A wide MF=1 fragment already covers the final fragment's range:
        # the MF=0 fragment stores nothing, but its untrimmed extent must
        # still establish the datagram length (it used to return early,
        # wedging the buffer forever).
        original = _exploit_packet(b"L" * 300)
        data = IpDefragmenter._raw_ip_payload(original)
        frags = fragment_packet(original, fragment_size=64, ident=0x5151)
        last = frags[-1]
        last_off = last.ip.frag_offset * 8
        wide = _raw_frag(original, last_off - 64, data[last_off - 64:],
                         last=False)
        defrag = IpDefragmenter()
        for frag in frags[:-2]:
            assert defrag.feed(frag) is None
        assert defrag.feed(wide) is None  # covers [last_off-64, end), MF=1
        out = defrag.feed(last)           # fully covered, MF=0
        assert out is not None
        assert out.payload == original.payload
        assert defrag.fragments_dropped >= 1  # the covered last stored nothing

    def test_teardrop_fragment_before_existing_chunk(self):
        # A fragment starting *before* an already-buffered chunk must have
        # its tail trimmed against it (it used to be stored overlapping,
        # corrupting the reassembled bytes).
        original = _exploit_packet(b"T" * 140)  # raw IP payload: 160 bytes
        data = IpDefragmenter._raw_ip_payload(original)
        defrag = IpDefragmenter()
        assert defrag.feed(
            _raw_frag(original, 48, data[48:112], last=False)) is None
        assert defrag.feed(
            _raw_frag(original, 0, data[0:64], last=False)) is None
        out = defrag.feed(_raw_frag(original, 112, data[112:], last=True))
        assert out is not None
        assert out.payload == original.payload
        assert defrag.overlaps_trimmed == 16  # bytes 48..63 arrived twice

    def test_forged_giant_fragment_dropped(self):
        defrag = IpDefragmenter()
        giant = _raw_frag(_exploit_packet(), 65528, b"y" * 64, last=False)
        assert defrag.feed(giant) is None
        assert defrag.fragments_dropped == 1
        assert defrag.bytes_buffered == 0

    def test_duplicate_fragment_counted_as_dropped(self):
        frags = fragment_packet(_exploit_packet(b"D" * 300),
                                fragment_size=64, ident=0x5152)
        defrag = IpDefragmenter()
        defrag.feed(frags[0])
        defrag.feed(frags[0])  # exact duplicate: contributes nothing
        assert defrag.fragments_dropped == 1
        assert defrag.overlaps_trimmed == 64

    def test_datagram_cap_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(IpDefragmenter, "MAX_DATAGRAMS", 2)
        defrag = IpDefragmenter()
        for i in range(4):
            pkt = tcp_packet("9.9.9.9", "10.0.0.1", 4000 + i, 80,
                             payload=b"e" * 200, timestamp=float(i))
            pkt.ip.ident = 0x6000 + i
            defrag.feed(fragment_packet(pkt, fragment_size=64)[0])
        assert len(defrag._buffers) <= 2
        assert defrag.datagrams_evicted >= 2

    def test_timeout_evicts_stale_buffers(self):
        defrag = IpDefragmenter()
        old = fragment_packet(_exploit_packet(b"o" * 200),
                              fragment_size=64, ident=0x6100)
        defrag.feed(old[0])  # incomplete, timestamp 1.0
        fresh = tcp_packet("8.8.8.8", "10.0.0.1", 4001, 80,
                           payload=b"f" * 200, timestamp=100.0)
        fresh.ip.ident = 0x6101
        defrag.feed(fragment_packet(fresh, fragment_size=64)[0])
        assert defrag.datagrams_evicted == 1

    def test_byte_budget_evicts(self, monkeypatch):
        monkeypatch.setattr(IpDefragmenter, "MAX_TOTAL_BYTES", 1024)
        defrag = IpDefragmenter()
        for i in range(8):
            pkt = tcp_packet("9.9.9.8", "10.0.0.1", 5000 + i, 80,
                             payload=b"b" * 500, timestamp=float(i))
            pkt.ip.ident = 0x6200 + i
            defrag.feed(fragment_packet(pkt, fragment_size=256)[0])
        assert defrag.bytes_buffered <= 1024
        assert defrag.datagrams_evicted >= 1


from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(deadline=None)
@given(st.binary(min_size=100, max_size=600),
       st.sampled_from([8, 16, 64, 96]), st.randoms())
def test_fragment_roundtrip_property(payload, size, rnd):
    """fragment → shuffle + duplicate + truthful overlap → defragment is
    lossless: every completed datagram carries exactly the original bytes,
    whatever the delivery order."""
    original = tcp_packet("3.3.3.3", "4.4.4.4", 1234, 80,
                          payload=payload, timestamp=1.0)
    raw = IpDefragmenter._raw_ip_payload(original)
    frags = fragment_packet(original, fragment_size=size, ident=0x7A7A)
    assert len(frags) >= 2  # raw > size by construction
    frags = frags + [rnd.choice(frags)]  # duplicate one fragment
    off = 8 * rnd.randrange(0, (len(raw) - 8) // 8 + 1)
    length = rnd.randrange(1, len(raw) - off + 1)
    frags.append(_raw_frag(original, off, raw[off:off + length],
                           last=False, ident=0x7A7A))
    rnd.shuffle(frags)
    defrag = IpDefragmenter()
    completed = [out for f in frags if (out := defrag.feed(f)) is not None]
    assert len(completed) >= 1
    for out in completed:
        assert out.is_tcp and out.sport == 1234
        assert out.payload == payload
