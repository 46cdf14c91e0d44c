"""Keep-everything reassembly: the reference both reassemblers are held to.

This is the reassembler the package shipped before streams became
consume-and-release: every range ever accepted stays in one
``offset -> bytes`` dict, the contiguous prefix is rebuilt from it on
demand, and first-writer-wins trimming (:func:`_insert`, the one copy of
the policy outside ``src/``) walks every stored range.  It is obviously
right and obviously wasteful, which is what a reference is for.
:class:`NaiveStream` is the TCP stream, :class:`NaiveDatagram` the
fragmented IP datagram.

``release`` only records the offset: the reference never forgets a byte,
so ``prefix()[released:]`` is what the real stream's window must equal.
The one rule that depends on it is shared with the real stream — once a
prefix has been released the base can no longer move, so a pre-base
segment is refused (and counted) instead of rebasing.

Closes are kept the same way: the offset every FIN/RST covered, as of its
arrival, moved along whenever the base moves; the stream closes at the
lowest of them and is ``complete()`` once the prefix reaches that offset
with no segment left beyond it.

``held()`` is what the real assembler must report as ``buffered``: every
kept byte not yet released, plus ``Assembler.PIECE_OVERHEAD`` for each
maximal run of kept bytes that does not start at offset zero (a piece
waiting above the frontier) — found by enumerating offsets.
"""

from __future__ import annotations

from repro.net.assembler import Assembler
from repro.net.flow import Stream
from repro.net.layers import TCP_FIN, TCP_RST, TCP_SYN


def _insert(segments: dict[int, bytes], offset: int, data: bytes) -> int:
    """First-writer-wins merge; returns the bytes trimmed by overlap."""
    trimmed = 0
    for seg_off in sorted(segments):
        seg_end = seg_off + len(segments[seg_off])
        if seg_end <= offset or seg_off >= offset + len(data):
            continue
        if seg_off <= offset:
            skip = min(len(data), seg_end - offset)
            trimmed += skip
            if skip >= len(data):
                return trimmed
            offset += skip
            data = data[skip:]
        else:
            segments[offset] = data[: seg_off - offset]
            trimmed += min(offset + len(data), seg_end) - seg_off
            data = data[seg_end - offset:]
            offset = seg_end
            if not data:
                return trimmed
    segments[offset] = data
    return trimmed


def _prefix(segments: dict[int, bytes]) -> bytes:
    """Contiguous bytes from offset zero, rebuilt from scratch."""
    out = bytearray()
    for offset in sorted(segments):
        if offset != len(out):
            break
        out += segments[offset]
    return bytes(out)


def _held(segments: dict[int, bytes], released: int = 0) -> int:
    kept = {o for off, seg in segments.items()
            for o in range(off, off + len(seg))}
    pieces = sum(1 for o in kept if o and o - 1 not in kept)
    return (sum(1 for o in kept if o >= released)
            + pieces * Assembler.PIECE_OVERHEAD)


def check_pieces(assembler: Assembler, frontier: int) -> None:
    """What both property suites assert of the real assembler's pending
    pieces: none is a view of a packet, and they lie strictly above the
    frontier, in order, none touching its neighbour — one per hole."""
    pieces = assembler.pieces()
    assert all(type(piece) is bytearray for _, piece in pieces)
    ends = [frontier] + [off + len(piece) for off, piece in pieces]
    assert all(off > end for (off, _), end in zip(pieces, ends))


class NaiveDatagram:
    """One fragmented datagram: complete once the prefix reaches the
    length the *first* MF=0 fragment claimed."""

    def __init__(self) -> None:
        self.segments: dict[int, bytes] = {}
        self.total_len: int | None = None

    def add(self, offset: int, data: bytes, last: bool) -> int:
        if last and self.total_len is None:
            self.total_len = offset + len(data)
        return _insert(self.segments, offset, data) if data else 0

    def prefix(self) -> bytes:
        return _prefix(self.segments)

    def payload(self) -> bytes | None:
        prefix = self.prefix()
        if self.total_len is None or len(prefix) < self.total_len:
            return None
        return prefix[: self.total_len]

    def held(self) -> int:
        return _held(self.segments)


class NaiveStream:
    MAX_BUFFER = Stream.MAX_BUFFER

    def __init__(self) -> None:
        self.base_seq: int | None = None
        self.segments: dict[int, bytes] = {}
        self.released = 0
        self.out_of_window = 0
        self.closes: list[int] = []

    def add(self, seq: int, payload: bytes, flags: int = 0x18) -> int:
        """Merge one segment; returns the bytes trimmed by overlap."""
        if self.base_seq is None:
            self.base_seq = (seq + 1) if flags & TCP_SYN else seq
        offset = (seq - self.base_seq) & 0xFFFFFFFF
        if payload and offset >= 1 << 31:  # segment precedes the base
            delta = (1 << 32) - offset
            if delta < self.MAX_BUFFER and not self.released:  # rebase
                self.segments = {off + delta: seg
                                 for off, seg in self.segments.items()}
                self.closes = [end + delta for end in self.closes]
                self.base_seq = seq
                offset = 0
        if flags & (TCP_FIN | TCP_RST):
            self.closes.append(offset + len(payload))
        if not payload:
            return 0
        if offset >= self.MAX_BUFFER:  # beyond the cap, or before the base
            self.out_of_window += 1
            return 0
        return _insert(self.segments, offset,
                       payload[: self.MAX_BUFFER - offset])

    def fin_offset(self) -> int | None:
        """Where the stream closes: the lowest offset a FIN/RST covered,
        no further out than the stream can ever reach."""
        return min(self.closes + [self.MAX_BUFFER]) if self.closes else None

    def complete(self) -> bool:
        prefix = len(self.prefix())
        return (bool(self.closes) and prefix >= self.fin_offset()
                and prefix == sum(len(s) for s in self.segments.values()))

    def prefix(self) -> bytes:
        return _prefix(self.segments)

    def release(self, upto: int) -> None:
        self.released = max(self.released, min(upto, len(self.prefix())))

    def held(self) -> int:
        """What a stream that forgets its released prefix still holds."""
        return _held(self.segments, self.released)
