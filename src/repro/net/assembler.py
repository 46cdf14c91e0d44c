"""First-writer-wins assembly of a byte range that arrives in pieces.

IP fragments and TCP segments pose one problem: bytes claimed at offsets,
out of order, overlapping, retransmitted with different content, on a
schedule the sender chooses.  :class:`Assembler` is the one answer both
reassemblers subclass — the first bytes to claim an offset keep it — and
its cost per placement follows the *holes* in what it holds (a bisection
over them), not how many fragments or segments it took to get there.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

__all__ = ["Assembler"]


@dataclass
class Assembler:
    """A contiguous window plus the out-of-order pieces above it.

    The window holds the bytes from offset ``released`` up to the
    *frontier*; below the frontier every byte is known-present, so
    trimming a retransmission needs the offset, not the bytes.  Above it
    wait the *pieces*: maximal runs of held bytes, sorted by start, never
    overlapping and joined where they touch — so there is one piece per
    hole, however many arrivals built it — each a ``bytearray`` copied
    from its packets (no view of a capture record survives a placement).
    """

    #: offset of the window's first byte: everything below it was handed
    #: on and dropped.
    released: int = 0
    #: what is held: window and piece bytes plus ``PIECE_OVERHEAD`` per
    #: piece, kept incrementally so accounting never walks the pieces.
    buffered: int = 0
    _window: bytearray = field(default_factory=bytearray, repr=False)
    #: piece starts, as ``offset - _shift``, and the pieces themselves
    _starts: list = field(default_factory=list, repr=False)
    _pieces: list = field(default_factory=list, repr=False)
    _shift: int = field(default=0, repr=False)

    #: what a pending piece costs besides its payload (a bytearray, its
    #: start, two list slots), charged so that the byte caps bound the
    #: heap under a one-byte-per-hole schedule, not just the payload.
    PIECE_OVERHEAD = 128

    def place(self, offset: int, data) -> int:
        """Keep the bytes of ``data`` (claimed at ``offset``) that nothing
        holds yet; returns how many were trimmed because something did."""
        window, starts, size = self._window, self._starts, len(data)
        frontier = self.released + len(window)
        trimmed = 0
        if offset < frontier:  # below the frontier every byte is present
            trimmed = min(size, frontier - offset)
            data, offset = data[trimmed:], frontier
        if offset == frontier and not starts:  # the in-order path
            window += data
            self.buffered += size - trimmed
            return trimmed
        if trimmed == size:
            return trimmed
        pieces, pos = self._pieces, offset - self._shift
        end = pos + len(data)
        at = pos  # where ``into`` ends: data[at - pos:] is still to place
        i = bisect_right(starts, pos)
        if offset == frontier:
            into = window  # every piece lies above the frontier: i == 0
        elif i and starts[i - 1] + len(pieces[i - 1]) >= pos:
            into = pieces[i - 1]  # overlaps or touches the piece below
            at = starts[i - 1] + len(into)
            trimmed += min(at, end) - pos
        else:
            into = bytearray()
            starts.insert(i, pos)
            pieces.insert(i, into)
            self.buffered += self.PIECE_OVERHEAD
            i += 1
        # Fill the gaps up to ``end``, joining every piece reached.
        j = i
        while j < len(starts) and starts[j] <= end:
            start, piece = starts[j], pieces[j]
            into += data[at - pos:start - pos]
            trimmed += min(end, start + len(piece)) - start
            into += piece
            at = start + len(piece)
            j += 1
        if at < end:
            into += data[at - pos:]
        del starts[i:j], pieces[i:j]
        self.buffered += size - trimmed - (j - i) * self.PIECE_OVERHEAD
        return trimmed

    def shift_up(self, delta: int) -> None:
        """Every held byte now lies ``delta`` offsets higher (bytes are
        about to arrive below offset zero; nothing may have been
        released).  The window becomes the lowest piece and the origin
        moves: no piece is touched."""
        if self._window:
            self._starts.insert(0, -self._shift)
            self._pieces.insert(0, self._window)
            self._window = bytearray()
            self.buffered += self.PIECE_OVERHEAD
        self._shift += delta

    def pieces(self) -> list[tuple[int, bytearray]]:
        """``(offset, bytes)`` of each piece pending above the frontier."""
        return [(start + self._shift, piece)
                for start, piece in zip(self._starts, self._pieces)]
