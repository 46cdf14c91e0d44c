"""Keep-everything TCP reassembly: the reference ``Stream`` is held to.

This is the reassembler the package shipped before streams became
consume-and-release: every segment the stream ever accepted stays in one
``offset -> bytes`` dict, the contiguous prefix is rebuilt from it on
demand, and first-writer-wins trimming walks every stored segment.  It is
obviously right and obviously wasteful, which is what a reference is for.

``release`` only records the offset: the reference never forgets a byte,
so ``prefix()[released:]`` is what the real stream's window must equal.
The one rule that depends on it is shared with the real stream — once a
prefix has been released the base can no longer move, so a pre-base
segment is refused (and counted) instead of rebasing.

Closes are kept the same way: the offset every FIN/RST covered, as of its
arrival, moved along whenever the base moves; the stream closes at the
lowest of them and is ``complete()`` once the prefix reaches that offset
with no segment left beyond it.
"""

from __future__ import annotations

from repro.net.flow import Stream
from repro.net.layers import TCP_FIN, TCP_RST, TCP_SYN


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
        return self._insert(offset, payload[: self.MAX_BUFFER - offset])

    def fin_offset(self) -> int | None:
        """Where the stream closes: the lowest offset a FIN/RST covered,
        no further out than the stream can ever reach."""
        return min(self.closes + [self.MAX_BUFFER]) if self.closes else None

    def complete(self) -> bool:
        prefix = len(self.prefix())
        return (bool(self.closes) and prefix >= self.fin_offset()
                and prefix == sum(len(s) for s in self.segments.values()))

    def _insert(self, offset: int, data: bytes) -> int:
        trimmed = 0
        for seg_off in sorted(self.segments):
            seg_end = seg_off + len(self.segments[seg_off])
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
                self.segments[offset] = data[: seg_off - offset]
                trimmed += min(offset + len(data), seg_end) - seg_off
                data = data[seg_end - offset:]
                offset = seg_end
                if not data:
                    return trimmed
        self.segments[offset] = data
        return trimmed

    def prefix(self) -> bytes:
        """Contiguous stream prefix from offset zero, rebuilt from scratch."""
        out = bytearray()
        for offset in sorted(self.segments):
            if offset != len(out):
                break
            out += self.segments[offset]
        return bytes(out)

    def release(self, upto: int) -> None:
        self.released = max(self.released, min(upto, len(self.prefix())))

    def held(self) -> int:
        """Bytes a stream that forgets its released prefix still holds."""
        return sum(max(0, off + len(seg) - max(off, self.released))
                   for off, seg in self.segments.items())
