"""Attacker-side evasion transforms: the gauntlet's offense.

Ptacek & Newsham (1998) catalogued how a NIDS that reconstructs traffic
differently from the end host can be blinded: overlapping or tiny IP
fragments, out-of-order delivery, duplicated last fragments, TCP segment
overlap and retransmission ambiguity, and interleaving unrelated flows so
per-flow state is stressed.  Each transform here rewrites a packet trace
the way such an attacker would — while keeping the byte stream a
first-writer-wins end host reconstructs unchanged — so the differential
harness (``tests/nids/test_evasion_gauntlet.py``,
``benchmarks/bench_evasion.py``) can assert the sensor's alert set is
*invariant* under every transform.  A transform that changes the alert
set has found a reassembly hole.

The exception is marked ``insertion``: the trace gains a forged segment
the end host drops but the sensor cannot tell from a real one (a bogus
FIN or RST mid-request).  There the alert set may shrink, and what must
hold instead is that the sensor analyses what follows and counts it
(``repro_reassembly_segments_after_close_total``) — never a silent pass.

Transforms never mutate their input packets; every derived packet is a
fresh object.  All randomness comes from the caller-supplied seed, so an
evaded trace is exactly reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from ..net.defrag import IpDefragmenter
from ..net.layers import TCP_ACK, TCP_FIN, TCP_RST, Ipv4, Tcp
from ..net.packet import Packet

__all__ = ["EvasionTransform", "EVASIONS", "apply_evasion", "evasion_names"]

_MF = 0x1


@dataclass(frozen=True)
class EvasionTransform:
    """One named trace-rewriting attack."""

    name: str
    description: str
    apply: Callable[[Sequence[Packet], random.Random], list[Packet]]
    #: forges a segment the end host never accepts (see module docstring)
    insertion: bool = False


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _raw_ip_payload(pkt: Packet) -> bytes:
    """The packet's full IP payload (transport header re-encoded)."""
    return IpDefragmenter._raw_ip_payload(pkt)


def _fragment(pkt: Packet, offset: int, data: bytes, last: bool,
              ident: int) -> Packet:
    ip = Ipv4(src=pkt.ip.src, dst=pkt.ip.dst, proto=pkt.ip.proto,
              ttl=pkt.ip.ttl, ident=ident,
              flags=0 if last else _MF, frag_offset=offset // 8)
    return Packet(eth=pkt.eth, ip=ip, payload=data, timestamp=pkt.timestamp)


def _overlapping_fragments(pkt: Packet, ident: int, size: int = 128,
                           stride: int = 64) -> list[Packet]:
    """Fragments of ``size`` bytes every ``stride`` bytes (stride < size
    means each fragment re-sends the tail of its predecessor — truthful
    bytes, so any first-writer-wins reconstruction is unaffected).

    A payload that fits one fragment is returned as the original packet:
    a lone MF=0/offset-0 "fragment" is not a fragment at all, and
    rebuilding it would discard the parsed transport layer."""
    data = _raw_ip_payload(pkt)
    if len(data) <= size:
        return [pkt]
    frags: list[Packet] = []
    offset = 0
    while True:
        chunk = data[offset:offset + size]
        last = offset + size >= len(data)
        frags.append(_fragment(pkt, offset, chunk, last, ident))
        if last:
            return frags
        offset += stride


def _plain_fragments(pkt: Packet, ident: int, size: int = 64) -> list[Packet]:
    return _overlapping_fragments(pkt, ident, size=size, stride=size)


def _fragmentable(pkt: Packet) -> bool:
    """Only whole, payload-bearing IP packets are worth fragmenting."""
    return (pkt.ip is not None and bool(pkt.payload)
            and pkt.ip.frag_offset == 0 and not pkt.ip.flags & _MF)


def _per_datagram(packets: Sequence[Packet],
                  split: Callable[[Packet, int], list[Packet]]) -> list[Packet]:
    """Apply ``split(pkt, ident)`` to every fragmentable packet, handing
    each datagram a distinct IP ident so reassembly buffers never merge
    fragments of different packets from the same flow."""
    out: list[Packet] = []
    ident = 0x1000
    for pkt in packets:
        if _fragmentable(pkt):
            out.extend(split(pkt, ident))
            ident = (ident + 1) & 0xFFFF or 0x1000
        else:
            out.append(pkt)
    return out


def _garbage(rng: random.Random, n: int) -> bytes:
    return rng.randbytes(n)


def _clone_tcp_segment(pkt: Packet, seq: int, payload: bytes) -> Packet:
    tcp = replace(pkt.l4, seq=seq & 0xFFFFFFFF)
    return Packet(eth=pkt.eth, ip=replace(pkt.ip), l4=tcp, payload=payload,
                  timestamp=pkt.timestamp)


# ---------------------------------------------------------------------------
# IP fragmentation attacks
# ---------------------------------------------------------------------------


def _tiny_fragments(packets: Sequence[Packet],
                    rng: random.Random) -> list[Packet]:
    return _per_datagram(packets, lambda p, i: _plain_fragments(p, i, size=8))


def _fragment_reorder(packets: Sequence[Packet],
                      rng: random.Random) -> list[Packet]:
    def split(pkt: Packet, ident: int) -> list[Packet]:
        frags = _plain_fragments(pkt, ident, size=64)
        rng.shuffle(frags)
        return frags

    return _per_datagram(packets, split)


def _fragment_overlap(packets: Sequence[Packet],
                      rng: random.Random) -> list[Packet]:
    """In-order overlapping fragments, with the penultimate fragment both
    retransmitted and then forged with garbage bytes before the final
    fragment completes the datagram.  Every disputed byte arrives after
    the truthful copy, so first-writer-wins must discard both duplicates
    whole — while the reassembly buffer is still live."""
    def split(pkt: Packet, ident: int) -> list[Packet]:
        frags = _overlapping_fragments(pkt, ident)
        if len(frags) < 2:
            return frags
        penult = frags[-2]
        forged = _fragment(pkt, penult.ip.frag_offset * 8,
                           _garbage(rng, len(penult.payload)),
                           last=False, ident=ident)
        return frags[:-1] + [penult, forged, frags[-1]]

    return _per_datagram(packets, split)


def _fragment_overlap_reorder(packets: Sequence[Packet],
                              rng: random.Random) -> list[Packet]:
    """Overlapping fragments delivered in shuffled order: the teardrop
    shape, where a fragment can arrive *before* a chunk it overlaps."""
    def split(pkt: Packet, ident: int) -> list[Packet]:
        frags = _overlapping_fragments(pkt, ident)
        rng.shuffle(frags)
        return frags

    return _per_datagram(packets, split)


def _fragment_dup_last(packets: Sequence[Packet],
                       rng: random.Random) -> list[Packet]:
    """A wide penultimate fragment already covers the final fragment's
    range, so the MF=0 fragment is fully trimmed on arrival — it must
    still establish the datagram length.  A duplicated middle fragment
    rides along as a plain retransmission."""
    def split(pkt: Packet, ident: int) -> list[Packet]:
        data = _raw_ip_payload(pkt)
        frags = _plain_fragments(pkt, ident, size=64)
        if len(frags) < 2:
            return frags
        last = frags[-1]
        last_off = last.ip.frag_offset * 8
        wide = _fragment(pkt, last_off - 64, data[last_off - 64:],
                         last=False, ident=ident)
        dup = frags[(len(frags) - 1) // 2]  # never the MF=0 last fragment
        return frags[:-1] + [dup, wide, last]

    return _per_datagram(packets, split)


# ---------------------------------------------------------------------------
# TCP stream attacks
# ---------------------------------------------------------------------------


def _per_segment(packets: Sequence[Packet],
                 split: Callable[[Packet], list[Packet]]) -> list[Packet]:
    out: list[Packet] = []
    for pkt in packets:
        if pkt.is_tcp and pkt.payload and _fragmentable(pkt):
            out.extend(split(pkt))
        else:
            out.append(pkt)
    return out


def _tcp_tiny_segments(packets: Sequence[Packet],
                       rng: random.Random) -> list[Packet]:
    def split(pkt: Packet) -> list[Packet]:
        tcp: Tcp = pkt.l4
        return [_clone_tcp_segment(pkt, tcp.seq + off,
                                   pkt.payload[off:off + 24])
                for off in range(0, len(pkt.payload), 24)]

    return _per_segment(packets, split)


def _tcp_overlap_retransmit(packets: Sequence[Packet],
                            rng: random.Random) -> list[Packet]:
    """Per data segment: second half first, then the whole segment (its
    tail now overlaps already-buffered bytes), then a same-seq garbage
    retransmission that first-writer-wins must reject wholesale."""
    def split(pkt: Packet) -> list[Packet]:
        tcp: Tcp = pkt.l4
        n = len(pkt.payload)
        half = max(1, n // 2)
        out = []
        if half < n:
            out.append(_clone_tcp_segment(pkt, tcp.seq + half,
                                          pkt.payload[half:]))
        out.append(_clone_tcp_segment(pkt, tcp.seq, pkt.payload))
        out.append(_clone_tcp_segment(pkt, tcp.seq, _garbage(rng, n)))
        return out

    return _per_segment(packets, split)


# ---------------------------------------------------------------------------
# attacks on the close
# ---------------------------------------------------------------------------


def _flow_segments(packets: Sequence[Packet]) -> dict[tuple, list[int]]:
    """Directed TCP flow -> indices of its segments, in delivery order."""
    flows: dict[tuple, list[int]] = {}
    for i, pkt in enumerate(packets):
        if pkt.is_tcp:
            flows.setdefault((pkt.src, pkt.dst, pkt.sport, pkt.dport),
                             []).append(i)
    return flows


def _tcp_fin_before_tail(packets: Sequence[Packet],
                         rng: random.Random) -> list[Packet]:
    """Each flow's FIN/RST is delivered ahead of its last two data
    segments (truthful sequence numbers, so the end host still closes
    after the tail): a sensor that let a stream go at the first FIN it
    saw would never analyse the tail."""
    ahead: dict[int, int] = {}  # index of a data segment -> its flow's FIN
    for indices in _flow_segments(packets).values():
        fin = next((i for i in indices
                    if packets[i].l4.flags & (TCP_FIN | TCP_RST)), None)
        if fin is None:
            continue
        data = [i for i in indices if i < fin and packets[i].payload]
        if len(data) >= 2:
            ahead[data[-2]] = fin
    moved = set(ahead.values())
    out: list[Packet] = []
    for i, pkt in enumerate(packets):
        if i in ahead:  # the FIN travels on this segment's timestamp
            out.append(replace(packets[ahead[i]], timestamp=pkt.timestamp))
        if i not in moved:
            out.append(pkt)
    return out


def _close_mid_request(packets: Sequence[Packet], flags: int) -> list[Packet]:
    """A forged, payload-less close (``flags``) at the current sequence
    number lands before the middle data segment of every flow that has
    at least two; the end host never honours it and keeps reading the
    request.  An insertion attack: the sensor cannot tell, so what it
    must do is analyse the remainder and say that it arrived."""
    middles = set()
    for indices in _flow_segments(packets).values():
        data = [i for i in indices if packets[i].payload]
        if len(data) >= 2:
            middles.add(data[len(data) // 2])
    out: list[Packet] = []
    for i, pkt in enumerate(packets):
        if i in middles:
            out.append(replace(pkt, ip=replace(pkt.ip), payload=b"",
                               l4=replace(pkt.l4, flags=flags)))
        out.append(pkt)
    return out


# ---------------------------------------------------------------------------
# cross-flow attacks
# ---------------------------------------------------------------------------


def _interleave_flows(packets: Sequence[Packet],
                      rng: random.Random) -> list[Packet]:
    """Round-robin packets across senders.  Per-sender order (which the
    classifier's decisions depend on) is preserved; everything else about
    delivery order is scrambled, so per-flow state is touched maximally
    interleaved instead of in convenient bursts.

    The original timestamps are reassigned in delivery order: a capture
    is monotone in time, and timer-driven state (fragment-buffer idle
    timeouts) must see the interleaving as a rescheduling of the same
    packets on the wire, not as wild clock jumps — composing this after
    a fragmentation transform would otherwise time out every in-flight
    reassembly buffer."""
    queues: dict[str, deque] = {}
    for pkt in packets:
        queues.setdefault(pkt.src or "", deque()).append(pkt)
    out: list[Packet] = []
    order = deque(queues.values())
    while order:
        q = order.popleft()
        out.append(q.popleft())
        if q:
            order.append(q)
    times = sorted(p.timestamp for p in out)
    return [replace(p, timestamp=t) for p, t in zip(out, times)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _registry(transforms: Iterable[EvasionTransform]) -> dict[str, EvasionTransform]:
    return {t.name: t for t in transforms}


EVASIONS: dict[str, EvasionTransform] = _registry([
    EvasionTransform(
        "tiny-fragments",
        "split every datagram into 8-byte IP fragments",
        _tiny_fragments),
    EvasionTransform(
        "fragment-reorder",
        "64-byte IP fragments delivered in shuffled order",
        _fragment_reorder),
    EvasionTransform(
        "fragment-overlap",
        "overlapping fragments in order + retransmitted last + garbage dup",
        _fragment_overlap),
    EvasionTransform(
        "fragment-overlap-reorder",
        "overlapping fragments shuffled (teardrop-style arrivals)",
        _fragment_overlap_reorder),
    EvasionTransform(
        "fragment-dup-last",
        "last fragment fully covered by a wide predecessor + dup middle",
        _fragment_dup_last),
    EvasionTransform(
        "tcp-tiny-segments",
        "re-segment TCP payloads into 24-byte segments",
        _tcp_tiny_segments),
    EvasionTransform(
        "tcp-overlap-retransmit",
        "out-of-order halves + full overlap + same-seq garbage retransmit",
        _tcp_overlap_retransmit),
    EvasionTransform(
        "tcp-fin-before-tail",
        "FIN/RST delivered ahead of the flow's last two data segments",
        _tcp_fin_before_tail),
    EvasionTransform(
        "tcp-data-after-fin",
        "bogus FIN mid-request, the remainder follows",
        lambda packets, rng: _close_mid_request(packets, TCP_FIN | TCP_ACK),
        insertion=True),
    EvasionTransform(
        "tcp-rst-mid-request",
        "forged RST mid-request, the remainder follows",
        lambda packets, rng: _close_mid_request(packets, TCP_RST),
        insertion=True),
    EvasionTransform(
        "interleave-flows",
        "round-robin packets across senders (per-sender order kept)",
        _interleave_flows),
])


def evasion_names() -> list[str]:
    return sorted(EVASIONS)


def apply_evasion(name: str, packets: Sequence[Packet],
                  seed: int = 0) -> list[Packet]:
    """Rewrite ``packets`` through the named transform, deterministically."""
    try:
        transform = EVASIONS[name]
    except KeyError:
        raise ValueError(f"unknown evasion transform {name!r}; expected one "
                         f"of {evasion_names()}") from None
    return transform.apply(packets, random.Random(seed))
