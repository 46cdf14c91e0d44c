"""IPv4 fragment reassembly.

Splitting an exploit across IP fragments is the oldest NIDS evasion in
the book (Ptacek & Newsham, 1998): a sensor that inspects fragments
individually never sees the contiguous payload.  :class:`IpDefragmenter`
sits in front of the pipeline and reassembles fragmented datagrams the
way the end host would (first-fragment-wins on overlap, BSD-style),
so the extraction stage always sees whole transport segments.

The reassembler is written to survive *adversarial* fragment streams,
not just well-formed ones: overlapping fragments are trimmed in both
directions (a fragment starting before an already-buffered chunk has
its tail trimmed, teardrop-style overlaps included), retransmitted last
fragments still establish the datagram length, per-datagram and total
buffer memory are bounded, and every drop/trim/eviction is counted so
the pipeline can surface evasion pressure in its statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..obs import MetricField, MetricsRegistry, StageTimer, Tracer, bind_metrics
from .assembler import Assembler
from .layers import Icmp, PROTO_ICMP, PROTO_TCP, PROTO_UDP, Tcp, Udp
from .packet import Packet

__all__ = ["IpDefragmenter", "fragment_packet"]

_MF = 0x1  # more-fragments flag (bit 0 of our 3-bit flags field: RFC bit 13)

#: An IPv4 datagram (header + payload) can never exceed 64 KiB; fragments
#: claiming bytes beyond this are forged and are dropped outright.
_MAX_DATAGRAM = 65535


@dataclass
class _FragmentBuffer(Assembler):
    """The fragments of one datagram: an :class:`Assembler` plus the
    length the first MF=0 fragment claimed."""

    total_len: int | None = None  # known once the MF=0 fragment arrives
    first_seen: float = 0.0

    def add(self, offset: int, data: bytes, last: bool) -> int:
        """Place one fragment; returns the bytes trimmed by overlap.

        The datagram length claim of an MF=0 fragment is taken from its
        *untrimmed* extent, before any overlap trimming — a retransmitted
        or fully-overlapped last fragment must still complete reassembly.
        First writer wins for the length too: a later, conflicting MF=0
        claim cannot shrink or grow an already-claimed datagram.
        """
        if last and self.total_len is None:
            self.total_len = offset + len(data)
        return self.place(offset, data)

    def complete(self) -> bytes | None:
        """The datagram, once the frontier has reached its claimed length
        (forged bytes beyond the claimed end are ignored)."""
        if self.total_len is None or len(self._window) < self.total_len:
            return None
        return bytes(self._window[: self.total_len])


class IpDefragmenter:
    """Reassembles fragmented IPv4 datagrams into whole packets.

    ``feed`` returns the packet to process: unfragmented packets pass
    straight through; fragments return ``None`` until the datagram
    completes, at which point the reassembled packet (with its transport
    header re-decoded) is returned.

    Memory is bounded twice over: a fragment claiming bytes past the
    64 KiB datagram limit is dropped, and what all half-reassembled
    datagrams hold (payload plus the per-piece charge) is capped at
    ``MAX_TOTAL_BYTES``, on top of the ``MAX_DATAGRAMS`` entry cap and
    the ``TIMEOUT``.  The table is kept oldest first, so each of the
    three only ever looks at — and evicts from — its front.
    """

    MAX_DATAGRAMS = 4096
    #: capture-clock seconds a datagram may wait for its missing bytes.
    TIMEOUT = 30.0
    MAX_TOTAL_BYTES = 8 * 1024 * 1024

    fragments_seen = MetricField("repro_defrag_fragments_total")
    fragments_dropped = MetricField("repro_defrag_fragments_dropped_total")
    overlaps_trimmed = MetricField("repro_defrag_overlap_bytes_trimmed_total")
    datagrams_reassembled = MetricField(
        "repro_defrag_datagrams_reassembled_total")
    datagrams_evicted = MetricField("repro_defrag_datagrams_evicted_total")
    bytes_buffered = MetricField("repro_defrag_buffered_bytes")

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        #: in age order: ``first_seen`` never falls from front to back.
        self._buffers: OrderedDict[tuple, _FragmentBuffer] = OrderedDict()
        registry = bind_metrics(self, registry)
        #: the defragmenter and the TCP reassembler share the "reassemble"
        #: stage: together they are the reassembly front-end.
        self.timer = StageTimer("reassemble", registry, tracer)

    def feed(self, pkt: Packet) -> Packet | None:
        if pkt.ip is None:
            return pkt
        is_fragment = bool(pkt.ip.flags & _MF) or pkt.ip.frag_offset > 0
        if not is_fragment:
            return pkt
        with self.timer.timed(nbytes=len(pkt.payload)):
            return self._feed_fragment(pkt)

    def _feed_fragment(self, pkt: Packet) -> Packet | None:
        self.fragments_seen += 1

        # A fragmented packet's transport header (if any) was parsed out of
        # the first fragment by Packet.decode; recover the raw IP payload.
        raw = self._raw_ip_payload(pkt)
        offset = pkt.ip.frag_offset * 8
        if offset + len(raw) > _MAX_DATAGRAM:
            self.fragments_dropped += 1  # forged: no datagram is this big
            return None

        key = (pkt.ip.src, pkt.ip.dst, pkt.ip.ident, pkt.ip.proto)
        buffer = self._buffers.get(key)
        if buffer is None:
            now, held = pkt.timestamp, self._buffers
            self._evict(now)
            # Age order survives a capture clock that runs backwards: a
            # new datagram is never older than the newest one held.
            newest = held[next(reversed(held))].first_seen if held else now
            buffer = held[key] = _FragmentBuffer(first_seen=max(now, newest))

        before = buffer.buffered
        trimmed = buffer.add(offset, raw, last=not (pkt.ip.flags & _MF))
        self.bytes_buffered += buffer.buffered - before
        self.overlaps_trimmed += trimmed
        if trimmed and trimmed == len(raw):
            # A duplicate/retransmission contributing nothing new.
            self.fragments_dropped += 1

        data = buffer.complete()
        if data is None:
            if self.bytes_buffered > self.MAX_TOTAL_BYTES:
                self._evict(pkt.timestamp)
            return None
        self._drop_buffer(key, evicted=False)
        self.datagrams_reassembled += 1
        return self._rebuild(pkt, data)

    def _drop_buffer(self, key: tuple, evicted: bool) -> None:
        buffer = self._buffers.pop(key)
        self.bytes_buffered -= buffer.buffered
        if evicted:
            self.datagrams_evicted += 1

    def _evict(self, now: float) -> None:
        """Drop the oldest datagram while it has timed out, the table is
        full or the byte cap is exceeded."""
        while self._buffers:
            key, oldest = next(iter(self._buffers.items()))
            if (now - oldest.first_seen <= self.TIMEOUT
                    and len(self._buffers) < self.MAX_DATAGRAMS
                    and self.bytes_buffered <= self.MAX_TOTAL_BYTES):
                break
            self._drop_buffer(key, evicted=True)

    @staticmethod
    def _raw_ip_payload(pkt: Packet) -> bytes:
        """Bytes carried by this fragment (transport header re-encoded for
        first fragments where decode already split it off)."""
        if pkt.l4 is None:
            return pkt.payload
        if isinstance(pkt.l4, Tcp):
            return pkt.l4.encode(pkt.payload, pkt.ip.src_int, pkt.ip.dst_int)
        if isinstance(pkt.l4, Udp):
            return pkt.l4.encode(pkt.payload, pkt.ip.src_int, pkt.ip.dst_int)
        if isinstance(pkt.l4, Icmp):
            return pkt.l4.encode(pkt.payload)
        return pkt.payload

    @staticmethod
    def _rebuild(last_fragment: Packet, data: bytes) -> Packet:
        """Construct the reassembled packet from the full IP payload."""
        from .layers import Ipv4

        ip = Ipv4(
            src=last_fragment.ip.src, dst=last_fragment.ip.dst,
            proto=last_fragment.ip.proto, ttl=last_fragment.ip.ttl,
            ident=last_fragment.ip.ident,
        )
        pkt = Packet(ip=ip, timestamp=last_fragment.timestamp)
        decoder = {PROTO_TCP: Tcp, PROTO_UDP: Udp, PROTO_ICMP: Icmp}.get(ip.proto)
        if decoder is None:
            pkt.payload = data
            return pkt
        try:
            pkt.l4, pkt.payload = decoder.decode(data)
        except Exception:
            pkt.payload = data
        return pkt


def fragment_packet(pkt: Packet, fragment_size: int = 64,
                    ident: int | None = None) -> list[Packet]:
    """Split a packet into IP fragments (the attacker-side tool).

    ``fragment_size`` is rounded down to a multiple of 8 (fragment offsets
    are in 8-byte units).  ``ident`` overrides the IP identification field
    of the emitted fragments; callers fragmenting several packets of one
    flow must give each datagram a distinct ident or their fragments will
    share a reassembly buffer.
    """
    if pkt.ip is None:
        raise ValueError("cannot fragment a packet without an IP header")
    fragment_size = max(8, fragment_size - fragment_size % 8)
    if pkt.l4 is not None:
        data = IpDefragmenter._raw_ip_payload(pkt)
    else:
        data = pkt.payload
    if ident is None:
        ident = pkt.ip.ident or 0x4242
    out: list[Packet] = []
    for offset in range(0, len(data), fragment_size):
        chunk = data[offset : offset + fragment_size]
        last = offset + fragment_size >= len(data)
        from .layers import Ipv4

        ip = Ipv4(src=pkt.ip.src, dst=pkt.ip.dst, proto=pkt.ip.proto,
                  ttl=pkt.ip.ttl, ident=ident,
                  flags=0 if last else _MF, frag_offset=offset // 8)
        out.append(Packet(ip=ip, payload=chunk, timestamp=pkt.timestamp))
    return out
