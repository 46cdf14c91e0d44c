"""Flow tracking and TCP stream reassembly.

The binary-extraction stage operates on *application messages*, not raw
segments: an exploit request may be split across TCP segments, and the
Code Red II GET request in the paper's traces spans several packets.
:class:`StreamReassembler` stitches TCP payload bytes back into per-direction
byte streams keyed by 5-tuple, handling out-of-order and overlapping
segments the way a first-writer-wins IDS reassembler does.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from ..errors import FlowKeyError
from ..obs import MetricField, MetricsRegistry, StageTimer, Tracer, bind_metrics
from .assembler import Assembler
from .layers import TCP_FIN, TCP_RST, TCP_SYN, Tcp
from .packet import Packet

__all__ = ["FlowKey", "FlowStats", "Stream", "StreamReassembler"]


@dataclass(frozen=True, order=True)
class FlowKey:
    """Directed 5-tuple identifying one direction of a conversation."""

    src: str
    dst: str
    sport: int
    dport: int
    proto: int = 6

    @classmethod
    def of(cls, pkt: Packet) -> "FlowKey":
        if pkt.ip is None or pkt.sport is None:
            raise FlowKeyError("packet has no transport flow")
        return cls(pkt.ip.src, pkt.ip.dst, pkt.sport, pkt.dport, pkt.ip.proto)

    def reverse(self) -> "FlowKey":
        return FlowKey(self.dst, self.src, self.dport, self.sport, self.proto)

    def __str__(self) -> str:
        return f"{self.src}:{self.sport}->{self.dst}:{self.dport}/{self.proto}"


@dataclass
class FlowStats:
    """Aggregate counters kept per directed flow."""

    packets: int = 0
    bytes: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0

    def update(self, pkt: Packet) -> None:
        if self.packets == 0:
            self.first_seen = pkt.timestamp
        self.packets += 1
        self.bytes += len(pkt.payload)
        self.last_seen = pkt.timestamp


@dataclass(kw_only=True)
class Stream(Assembler):
    """One direction of a TCP conversation, reassembled and *consumed*.

    Segments are merged first-writer-wins (:class:`Assembler`): bytes
    already present at a stream offset are never overwritten by
    retransmissions or overlaps, matching common IDS reassembly policy.
    The stream keeps only its analysis window — the contiguous bytes from
    ``released`` up to the frontier — plus the out-of-order pieces waiting
    above the frontier for a hole to fill, and :meth:`release` drops an
    analysed prefix for good.  What is TCP lives here: the sequence
    origin, the per-stream cap and the close.

    A FIN/RST closes the stream at the offset it covers; the stream is
    :meth:`complete` only once the frontier has reached that offset with
    nothing pending, so a FIN sent ahead of missing data ends nothing.
    """

    key: FlowKey
    base_seq: int | None = None
    #: stream offset the lowest FIN/RST seen so far covers (``None``
    #: while the stream is open).
    fin_offset: int | None = None
    stats: FlowStats = field(default_factory=FlowStats)
    #: segments refused because they fall outside what the stream can
    #: still place (see :meth:`add`).
    out_of_window: int = 0
    _data_cache: bytes | None = field(default=None, repr=False)

    MAX_BUFFER = 4 * 1024 * 1024  # per-stream cap, mirrors real IDS limits
    #: capture-clock seconds without a segment after which a stream is
    #: given its final round and reaped (Zeek's tcp_inactivity_timeout).
    IDLE_TIMEOUT = 300.0

    @property
    def fin_seen(self) -> bool:
        return self.fin_offset is not None

    def __getstate__(self) -> dict:
        # Checkpoint support: the cached copy of the window is rebuilt on
        # demand, so it never rides along.
        state = self.__dict__.copy()
        state["_data_cache"] = None
        return state

    def add(self, pkt: Packet) -> int:
        """Merge one segment; returns the bytes trimmed by overlap.

        A segment the stream cannot place — at or beyond ``MAX_BUFFER``,
        more than ``MAX_BUFFER`` before the base, or before the base once
        a prefix has been released (the offsets can no longer shift) — is
        dropped and counted in ``out_of_window``.
        """
        tcp = pkt.l4
        assert isinstance(tcp, Tcp)
        self.stats.update(pkt)
        if self.base_seq is None:
            # First segment establishes the sequence origin; SYN consumes one
            # sequence number, so payload (if any) starts at seq+1.
            self.base_seq = (tcp.seq + 1) if tcp.flags & TCP_SYN else tcp.seq
        offset = (tcp.seq - self.base_seq) & 0xFFFFFFFF
        trimmed = 0
        if pkt.payload:
            self._data_cache = None
            delta = (1 << 32) - offset  # distance *before* the base
            if delta < self.MAX_BUFFER and not self.released:
                # Rebase: the origin moves down to this segment, and what
                # is held (the close included) lies ``delta`` higher.
                self.shift_up(delta)
                if self.fin_offset is not None:
                    self.fin_offset = min(self.fin_offset + delta,
                                          self.MAX_BUFFER)
                self.base_seq = tcp.seq
                offset = 0
            if offset >= self.MAX_BUFFER:  # incl. any other pre-base offset
                self.out_of_window += 1
            else:
                trimmed = self.place(
                    offset, pkt.payload[: self.MAX_BUFFER - offset])
        if tcp.flags & (TCP_FIN | TCP_RST):
            end = min(offset + len(pkt.payload), self.MAX_BUFFER)
            if self.fin_offset is None or end < self.fin_offset:
                self.fin_offset = end
        return trimmed

    def release(self, upto: int) -> int:
        """Drop the window's bytes below stream offset ``upto`` (clamped
        to the frontier) and the copy ``data()`` made of it; returns how
        many window bytes were freed."""
        self._data_cache = None
        drop = min(upto - self.released, len(self._window))
        if drop <= 0:
            return 0
        del self._window[:drop]
        self.released += drop
        self.buffered -= drop
        return drop

    def data(self) -> bytes:
        """The analysis window: the contiguous bytes from ``released`` up
        to the frontier (the whole prefix until something is released)."""
        if self._data_cache is None:
            self._data_cache = bytes(self._window)
        return self._data_cache

    def contiguous_length(self) -> int:
        """Stream offset of the contiguous frontier, released bytes
        included, without materializing bytes."""
        return self.released + len(self._window)

    def complete(self) -> bool:
        """Closed and whole: the frontier has reached the FIN/RST offset
        and nothing waits out of order.  A FIN ahead of missing data
        leaves the stream live (the hole, or the short frontier)."""
        return (self.fin_offset is not None and not self._starts
                and self.released + len(self._window) >= self.fin_offset)


class StreamReassembler:
    """Tracks all TCP streams seen by the sensor.

    Non-TCP packets are counted but not buffered.  ``feed`` returns the
    stream a packet belonged to (or ``None``) so callers can re-inspect the
    reassembled message after every segment, which is how the NIDS triggers
    extraction as soon as a request is complete enough to parse.

    The table holds *live* streams: the caller reaps a stream once it is
    closed, whole and analysed (:meth:`reap`), and one that went quiet
    for ``Stream.IDLE_TIMEOUT`` on the capture clock (:meth:`idle`).  A
    payload-less segment of an unknown flow (a bare ACK, the tail of a
    reaped close) allocates nothing; payload on a reaped flow opens a
    new stream and is counted in ``segments_after_close``.

    Against floods, memory is bounded by ``max_streams`` (entry count) and
    ``MAX_TOTAL_BYTES`` (the sum of ``Stream.buffered``: payload plus the
    per-piece charge, on top of the per-stream ``Stream.MAX_BUFFER``);
    both count what is still held, not bytes ever seen, and the
    least-recently-fed stream is evicted first.  ``on_evict`` — called
    with the evicted stream's :class:`FlowKey` — lets the pipeline drop
    its own per-stream state in lockstep, so no side table outlives the
    stream it describes.
    """

    MAX_TOTAL_BYTES = 256 * 1024 * 1024
    #: reaped flows remembered (as key hashes, oldest forgotten first) so
    #: payload arriving after a reap can be counted.
    REAPED_MEMORY = 1024

    non_tcp_packets = MetricField("repro_reassembly_non_tcp_packets_total")
    evicted = MetricField("repro_reassembly_streams_evicted_total")
    reaped_closed = MetricField("repro_reassembly_streams_reaped_total",
                                {"reason": "closed"})
    reaped_idle = MetricField("repro_reassembly_streams_reaped_total",
                              {"reason": "idle"})
    segments_after_close = MetricField(
        "repro_reassembly_segments_after_close_total")
    overlaps_trimmed = MetricField(
        "repro_reassembly_overlap_bytes_trimmed_total")
    out_of_window_segments = MetricField(
        "repro_reassembly_out_of_window_segments_total")
    bytes_buffered = MetricField("repro_reassembly_buffered_bytes")

    def __init__(self, max_streams: int = 65536,
                 on_evict: Callable[[FlowKey], None] | None = None,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        #: in recency order: the stream just fed moves to the back, so
        #: the front is always the next eviction victim.
        self.streams: OrderedDict[FlowKey, Stream] = OrderedDict()
        self._reaped: OrderedDict[int, bool] = OrderedDict()
        self.max_streams = max_streams
        self.on_evict = on_evict
        reg = bind_metrics(self, registry)
        self._active_streams = reg.gauge("repro_reassembly_active_streams")
        #: shares the "reassemble" stage with the IP defragmenter — the
        #: two components are one front-end in the stage breakdown.
        self.timer = StageTimer("reassemble", reg, tracer)

    def feed(self, pkt: Packet) -> Stream | None:
        if not pkt.is_tcp:
            self.non_tcp_packets += 1
            return None
        with self.timer.timed(nbytes=len(pkt.payload)):
            return self._feed_tcp(pkt)

    def _feed_tcp(self, pkt: Packet) -> Stream | None:
        key = FlowKey.of(pkt)
        stream = self.streams.get(key)
        if stream is None:
            syn = pkt.l4.flags & TCP_SYN
            if not pkt.payload and not syn:
                return None  # nothing to reassemble, nothing to remember
            if self._reaped.pop(hash(key), False) and not syn:
                self.segments_after_close += 1
            if len(self.streams) >= self.max_streams:
                self._evict_oldest()
            stream = Stream(key=key)
            self.streams[key] = stream
        else:
            self.streams.move_to_end(key)
        before = stream.buffered
        refused = stream.out_of_window
        self.overlaps_trimmed += stream.add(pkt)
        self.bytes_buffered += stream.buffered - before
        if stream.out_of_window != refused:
            self.out_of_window_segments += 1
        # Keep aggregate memory bounded even against many fat streams; the
        # stream just fed sits at the back, so an in-progress message
        # survives.
        # Clamp: once that stream alone meets or exceeds the byte cap,
        # evicting everything else cannot get under it — that would be
        # pure over-eviction of innocent streams (the stream itself is
        # already bounded by Stream.MAX_BUFFER).
        while (self.bytes_buffered > self.MAX_TOTAL_BYTES
               and len(self.streams) > 1
               and stream.buffered < self.MAX_TOTAL_BYTES):
            self._evict_oldest()
        self._active_streams.value = len(self.streams)
        return stream

    def release(self, stream: Stream, upto: int) -> None:
        """The bytes of ``stream`` below offset ``upto`` have been
        analysed: drop them, and the budget stops counting them."""
        self.bytes_buffered -= stream.release(upto)

    def idle(self, now: float) -> Stream | None:
        """The least-recently-fed stream, if the capture clock ``now``
        has left it ``Stream.IDLE_TIMEOUT`` behind."""
        front = next(iter(self.streams.values()), None)
        if (front is not None
                and now - front.stats.last_seen > Stream.IDLE_TIMEOUT):
            return front
        return None

    def reap(self, stream: Stream, reason: str) -> None:
        """End of life (``reason`` is ``"closed"`` or ``"idle"``): the
        stream leaves the table and the byte budget; only its key's hash
        is remembered."""
        del self.streams[stream.key]
        self.bytes_buffered -= stream.buffered
        self._active_streams.value = len(self.streams)
        if reason == "idle":
            self.reaped_idle += 1
        else:
            self.reaped_closed += 1
        self._reaped[hash(stream.key)] = True
        if len(self._reaped) > self.REAPED_MEMORY:
            self._reaped.popitem(last=False)

    def _evict_oldest(self) -> None:
        _, victim = self.streams.popitem(last=False)
        self.bytes_buffered -= victim.buffered
        self.evicted += 1
        self._active_streams.value = len(self.streams)
        if self.on_evict is not None:
            self.on_evict(victim.key)

    def get(self, key: FlowKey) -> Stream | None:
        return self.streams.get(key)

    def __len__(self) -> int:
        return len(self.streams)
