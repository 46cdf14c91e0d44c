"""Aho-Corasick multi-pattern matching, from scratch.

Promoted from ``repro.baseline.aho_corasick`` (which re-exports from
here): the automaton now serves double duty.  It remains the substrate
for the Snort-style signature baseline — real signature IDSs match
thousands of byte patterns simultaneously with exactly this machinery —
and it is the scan engine of the fast-path admission prefilter, where
all templates' anchor byte patterns are compiled into one automaton and
every admitted frame takes a single O(n + matches) pass before any
disassembly happens.

Classic construction: a trie over all patterns (goto function), BFS-built
failure links, and output sets merged along failure chains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["AhoCorasick", "PatternMatch", "VectorScanSet"]


@dataclass(frozen=True)
class PatternMatch:
    """One occurrence: pattern index and the offset of its first byte."""

    pattern: int
    start: int
    end: int


class AhoCorasick:
    """Multi-pattern byte matcher.

    >>> ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
    >>> [(m.pattern, m.start) for m in ac.search(b"ushers")]
    [(1, 1), (0, 2), (3, 2)]
    """

    def __init__(self, patterns: list[bytes]) -> None:
        if any(not p for p in patterns):
            raise ValueError("empty patterns are not allowed")
        self.patterns = list(patterns)
        # state -> {byte: state}
        self._goto: list[dict[int, int]] = [{}]
        # state -> pattern indices ending here
        self._output: list[list[int]] = [[]]
        self._fail: list[int] = [0]
        for index, pattern in enumerate(self.patterns):
            self._insert(pattern, index)
        self._build_failure_links()

    def _insert(self, pattern: bytes, index: int) -> None:
        state = 0
        for byte in pattern:
            nxt = self._goto[state].get(byte)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._output.append([])
                self._fail.append(0)
                self._goto[state][byte] = nxt
            state = nxt
        self._output[state].append(index)

    def _build_failure_links(self) -> None:
        queue: deque[int] = deque()
        for state in self._goto[0].values():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            state = queue.popleft()
            for byte, nxt in self._goto[state].items():
                queue.append(nxt)
                fail = self._fail[state]
                while fail and byte not in self._goto[fail]:
                    fail = self._fail[fail]
                self._fail[nxt] = self._goto[fail].get(byte, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt] = (self._output[nxt]
                                     + self._output[self._fail[nxt]])

    def search(self, data: bytes) -> list[PatternMatch]:
        """All occurrences of all patterns in ``data``."""
        out: list[PatternMatch] = []
        state = 0
        for pos, byte in enumerate(data):
            while state and byte not in self._goto[state]:
                state = self._fail[state]
            state = self._goto[state].get(byte, 0)
            for pattern in self._output[state]:
                length = len(self.patterns[pattern])
                out.append(PatternMatch(pattern=pattern,
                                        start=pos - length + 1, end=pos + 1))
        return out

    def contains_any(self, data: bytes) -> bool:
        """Fast boolean scan (stops at the first hit)."""
        state = 0
        for byte in data:
            while state and byte not in self._goto[state]:
                state = self._fail[state]
            state = self._goto[state].get(byte, 0)
            if self._output[state]:
                return True
        return False


class VectorScanSet:
    """Vectorized presence scan for short byte patterns.

    The prefilter's anchor patterns are instruction-encoding prefixes —
    1 to 3 bytes — and its per-frame question is *which patterns occur*
    (plus a total occurrence count), not where.  That presence question
    vectorizes: a byte histogram answers every 1-byte pattern at once, a
    16-bit pair gather every 2-byte pattern, and a sorted-key search over
    24-bit triples every 3-byte pattern.  Patterns of 4+ bytes (none
    derived today) fall back to the :class:`AhoCorasick` automaton so the
    interface stays complete.

    Pattern indices returned by :meth:`presence` are positions in the
    constructor's list.
    """

    def __init__(self, patterns: list[bytes]) -> None:
        import numpy as np

        if any(not p for p in patterns):
            raise ValueError("empty patterns are not allowed")
        self.patterns = list(patterns)
        self._len1 = np.full(256, -1, dtype=np.int32)
        self._has_len1 = False
        self._len2 = None  # lazily allocated 64k-entry table
        len3_keys: list[int] = []
        len3_pids: list[int] = []
        long_patterns: list[bytes] = []
        long_pids: list[int] = []
        for pid, pattern in enumerate(self.patterns):
            if len(pattern) == 1:
                self._len1[pattern[0]] = pid
                self._has_len1 = True
            elif len(pattern) == 2:
                if self._len2 is None:
                    self._len2 = np.full(65536, -1, dtype=np.int32)
                self._len2[(pattern[0] << 8) | pattern[1]] = pid
            elif len(pattern) == 3:
                len3_keys.append((pattern[0] << 16) | (pattern[1] << 8)
                                 | pattern[2])
                len3_pids.append(pid)
            else:
                long_patterns.append(pattern)
                long_pids.append(pid)
        if len3_keys:
            order = np.argsort(len3_keys)
            self._len3_keys = np.asarray(len3_keys, dtype=np.int64)[order]
            self._len3_pids = np.asarray(len3_pids, dtype=np.int64)[order]
        else:
            self._len3_keys = None
            self._len3_pids = None
        self._automaton = AhoCorasick(long_patterns) if long_patterns else None
        self._long_pids = long_pids

    def presence(self, arr) -> tuple[set[int], int]:
        """``(pattern indices present in arr, total occurrences)`` for a
        ``uint8`` array view of the frame."""
        import numpy as np

        present: set[int] = set()
        hits = 0
        n = arr.size
        if self._has_len1 and n:
            counts = np.bincount(arr, minlength=256)
            seen = self._len1[counts > 0]
            present.update(seen[seen >= 0].tolist())
            hits += int(counts[self._len1 >= 0].sum())
        if self._len2 is not None and n > 1:
            pairs = (arr[:-1].astype(np.int32) << 8) | arr[1:]
            pids = self._len2[pairs]
            hit = pids >= 0
            n_hits = int(np.count_nonzero(hit))
            if n_hits:
                hits += n_hits
                # Distinct ids by histogram, not np.unique: that sorts,
                # and its first call imports numpy.ma (2.6 MB resident).
                present.update(
                    np.flatnonzero(np.bincount(pids[hit])).tolist())
        if self._len3_keys is not None and n > 2:
            triples = ((arr[:-2].astype(np.int64) << 16)
                       | (arr[1:-1].astype(np.int64) << 8)
                       | arr[2:])
            slots = np.searchsorted(self._len3_keys, triples)
            slots[slots >= self._len3_keys.size] = 0
            hit = self._len3_keys[slots] == triples
            n_hits = int(np.count_nonzero(hit))
            if n_hits:
                hits += n_hits
                present.update(np.flatnonzero(
                    np.bincount(self._len3_pids[slots[hit]])).tolist())
        if self._automaton is not None and n:
            for m in self._automaton.search(arr.tobytes()):
                present.add(self._long_pids[m.pattern])
                hits += 1
        return present, hits
