"""Append-only, CRC-framed write-ahead alert journal.

The journal is the durability backstop for the sensor daemon: every
alert is appended (and eventually fsynced) *before* it is handed to the
delivery sink, so a crash can never lose an alert that the daemon
claimed to have produced.  On restart :func:`AlertJournal.recover`
re-reads the segments, truncating a torn tail (partial frame from a
crash mid-write) instead of failing.

Wire format, per entry::

    magic  b"RJ"      (2 bytes)
    length u32 LE     payload byte count
    crc    u32 LE     crc32 of the payload
    payload           UTF-8 JSON: {"k": <key>, "a": {<alert fields>}}

Entries live in numbered segment files (``seg-00000001.wal`` ...);
:class:`AlertJournal` rotates to a new segment once the current one
exceeds ``segment_max_bytes``.  ``fsync_batch`` controls how many
appends may ride in the page cache before an ``os.fsync`` — ``1`` is
fully synchronous, larger batches trade a bounded loss window (closed
by :meth:`AlertJournal.sync` at every checkpoint) for throughput.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # imported lazily at runtime: repro.nids imports us
    from repro.nids.alerts import Alert

_MAGIC = b"RJ"
_FRAME = struct.Struct("<2sII")
_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.wal$")

#: Alert fields that survive the journal round trip.  ``match`` is
#: deliberately dropped: it holds live template/IR references and the
#: rendered alert line does not depend on it.
ALERT_FIELDS = (
    "timestamp",
    "source",
    "destination",
    "template",
    "severity",
    "frame_origin",
    "detail",
)


def alert_to_record(alert: "Alert") -> dict[str, Any]:
    """Portable dict for one alert (drops the live ``match`` handle)."""

    return {name: getattr(alert, name) for name in ALERT_FIELDS}


def record_to_alert(record: dict[str, Any]) -> "Alert":
    from repro.nids.alerts import Alert

    return Alert(**{name: record[name] for name in ALERT_FIELDS})


def _normalise_key(key: Any) -> Any:
    """JSON round-trips lists, not tuples — canonicalise on the way out."""

    if isinstance(key, list):
        return tuple(key)
    return key


@dataclass
class JournalRecovery:
    """Result of scanning the journal segments on restart."""

    entries: list[tuple[Any, dict[str, Any]]] = field(default_factory=list)
    torn: bool = False
    truncated_bytes: int = 0
    segments: int = 0

    @property
    def keys(self) -> list[Any]:
        return [key for key, _ in self.entries]


class AlertJournal:
    """Append-only CRC-framed journal with segment rotation."""

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        fsync_batch: int = 8,
        segment_max_bytes: int = 4 * 1024 * 1024,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if fsync_batch < 1:
            raise ValueError("fsync_batch must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_batch = fsync_batch
        self.segment_max_bytes = segment_max_bytes
        self.appended = 0
        self.synced = 0
        self._pending = 0
        self._fh = None
        self._segment_index = self._last_segment_index()
        registry = registry if registry is not None else MetricsRegistry()
        self._fsync_counter = registry.counter("repro_journal_fsync_total")
        # Chaos seam: when set, the next append writes this many bytes of
        # the frame, flushes, and raises — simulating a crash mid-write.
        self._tear_after_bytes: int | None = None

    # -- segment bookkeeping ------------------------------------------

    def _segments(self) -> list[Path]:
        found = []
        for path in self.directory.iterdir():
            if _SEGMENT_RE.match(path.name):
                found.append(path)
        return sorted(found)

    def _last_segment_index(self) -> int:
        segments = self._segments()
        if not segments:
            return 0
        return int(_SEGMENT_RE.match(segments[-1].name).group(1))

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"seg-{index:08d}.wal"

    def _open_for_append(self):
        if self._fh is None:
            if self._segment_index == 0:
                self._segment_index = 1
            self._fh = open(self._segment_path(self._segment_index), "ab")
        return self._fh

    def _rotate_if_needed(self) -> None:
        if self._fh is not None and self._fh.tell() >= self.segment_max_bytes:
            self.sync()
            self._fh.close()
            self._fh = None
            self._segment_index += 1

    # -- write path ---------------------------------------------------

    def append(self, key: Any, alert: Alert | dict[str, Any]) -> None:
        """Frame and append one alert; fsync every ``fsync_batch`` appends."""

        record = alert if isinstance(alert, dict) else alert_to_record(alert)
        payload = json.dumps(
            {"k": key, "a": record}, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        frame = _FRAME.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload
        fh = self._open_for_append()
        if self._tear_after_bytes is not None:
            torn = frame[: self._tear_after_bytes]
            self._tear_after_bytes = None
            fh.write(torn)
            fh.flush()
            os.fsync(fh.fileno())
            raise OSError("journal write torn by fault injection")
        fh.write(frame)
        self.appended += 1
        self._pending += 1
        if self._pending >= self.fsync_batch:
            self.sync()
        self._rotate_if_needed()

    def sync(self) -> None:
        """Flush and fsync any buffered appends."""

        if self._fh is None or self._pending == 0:
            if self._fh is not None:
                self._fh.flush()
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.synced += self._pending
        self._pending = 0
        self._fsync_counter.inc()

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    # -- recovery path ------------------------------------------------

    def recover(self, *, repair: bool = True) -> JournalRecovery:
        """Scan all segments, truncating at the first torn/corrupt frame.

        With ``repair=True`` (the default) the torn segment is truncated
        in place and any later segments are removed, so subsequent
        appends continue from a clean tail.
        """

        if self._fh is not None:
            raise RuntimeError("recover() must run before the journal is opened for append")
        result = JournalRecovery()
        segments = self._segments()
        result.segments = len(segments)
        for seg_no, path in enumerate(segments):
            data = path.read_bytes()
            good_end, entries, torn = _scan_segment(data)
            result.entries.extend(entries)
            if torn:
                result.torn = True
                result.truncated_bytes += len(data) - good_end
                if repair:
                    with open(path, "r+b") as fh:
                        fh.truncate(good_end)
                    for later in segments[seg_no + 1 :]:
                        result.truncated_bytes += later.stat().st_size
                        later.unlink()
                break
        if segments:
            self._segment_index = self._last_segment_index()
        return result

    def prune(self, keep_segments: int = 1) -> int:
        """Remove all but the newest ``keep_segments`` segment files."""

        segments = self._segments()
        removed = 0
        for path in segments[: max(0, len(segments) - keep_segments)]:
            path.unlink()
            removed += 1
        return removed


def _scan_segment(
    data: bytes,
) -> tuple[int, list[tuple[Any, dict[str, Any]]], bool]:
    """Parse frames from one segment.

    Returns ``(good_end, entries, torn)`` where ``good_end`` is the byte
    offset after the last intact frame.
    """

    entries: list[tuple[Any, dict[str, Any]]] = []
    pos = 0
    size = len(data)
    while pos + _FRAME.size <= size:
        magic, length, crc = _FRAME.unpack_from(data, pos)
        if magic != _MAGIC:
            return pos, entries, True
        end = pos + _FRAME.size + length
        if end > size:
            return pos, entries, True
        payload = data[pos + _FRAME.size : end]
        if zlib.crc32(payload) != crc:
            return pos, entries, True
        try:
            decoded = json.loads(payload.decode("utf-8"))
            key = _normalise_key(decoded["k"])
            record = decoded["a"]
        except (ValueError, KeyError, UnicodeDecodeError):
            return pos, entries, True
        entries.append((key, record))
        pos = end
    if pos != size:
        return pos, entries, True
    return pos, entries, False


def tear_journal_tail(directory: str | os.PathLike[str], drop: int = 5) -> Path:
    """Chaos helper: chop ``drop`` bytes off the newest segment's tail.

    Simulates the partial frame a crash leaves mid-``write``.  Returns
    the path of the torn segment.
    """

    directory = Path(directory)
    segments = sorted(p for p in directory.iterdir() if _SEGMENT_RE.match(p.name))
    if not segments:
        raise FileNotFoundError(f"no journal segments under {directory}")
    tail = segments[-1]
    size = tail.stat().st_size
    if size == 0:
        raise ValueError(f"segment {tail} is empty; nothing to tear")
    with open(tail, "r+b") as fh:
        fh.truncate(max(0, size - drop))
    return tail


def replay_entries(
    entries: Iterable[tuple[Any, dict[str, Any]]],
) -> list[tuple[Any, Alert]]:
    """Rehydrate recovered journal entries into live alerts."""

    return [(key, record_to_alert(record)) for key, record in entries]
