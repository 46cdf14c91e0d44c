"""pcap file reading and writing (classic libpcap format, LINKTYPE_ETHERNET).

Traces produced by :mod:`repro.traffic` are written in standard pcap so they
can be opened with tcpdump/Wireshark, and the NIDS sensor can equally consume
traces captured by real tools.  Both byte orders are accepted on read; files
are written little-endian with microsecond resolution.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from ..errors import CaptureError, TruncatedCaptureError
from ..obs import MetricsRegistry
from .packet import PEEK_PREFIX_LEN, Packet

__all__ = ["PcapWriter", "PcapReader", "PcapRecordMeta", "write_pcap",
           "read_pcap", "PcapError", "TruncatedCaptureError"]

_MAGIC_LE = 0xA1B2C3D4
_MAGIC_BE = 0xD4C3B2A1
_LINKTYPE_ETHERNET = 1

#: Precompiled header codecs — one ``struct`` format parse at import time
#: instead of one per record (the per-record ``struct.unpack(fmt, ...)``
#: re-parse was measurable on million-record captures).
_MAGIC_STRUCT = struct.Struct("<I")
_GLOBAL_HEADER = {
    "<": struct.Struct("<IHHiIII"),
    ">": struct.Struct(">IHHiIII"),
}
_RECORD_HEADER = {
    "<": struct.Struct("<IIII"),
    ">": struct.Struct(">IIII"),
}
_RECORD_HEADER_LEN = _RECORD_HEADER["<"].size  # 16 both ways

#: Read granularity for the buffered record loop: large enough that a
#: typical record costs no file-object call at all.
_READ_CHUNK = 256 * 1024


#: Historical name for capture-level failures.  An alias (not a subclass)
#: so the typed :class:`~repro.errors.TruncatedCaptureError` stays
#: catchable as ``PcapError`` at pre-existing call sites.
PcapError = CaptureError


@dataclass
class PcapRecord:
    """A single captured frame: raw bytes plus its capture timestamp."""

    timestamp: float
    data: bytes


@dataclass
class PcapRecordMeta:
    """A record's *boundary*, not its body: what the fleet's offset
    transport dispatcher needs to hand a worker a ``(offset, count)``
    extent.  ``prefix`` is just enough of the record head for
    :meth:`repro.net.packet.Packet.peek_flow` to shard it — the
    dispatcher never parses (or copies) the payload."""

    #: file offset of the record header — a valid
    #: :meth:`PcapReader.seek_to` target.
    offset: int
    timestamp: float
    #: captured length (the record body a worker will re-read).
    caplen: int
    #: first ``min(caplen, prefix_len)`` bytes of the record body.
    prefix: bytes
    #: the capture file the offsets point into (``None`` for a reader
    #: over a file object) — what a worker opens to re-read the extent.
    path: str | None = None

    @property
    def end(self) -> int:
        """File offset just past this record: the next record's
        ``offset`` exactly when nothing lies between the two."""
        return self.offset + _RECORD_HEADER_LEN + self.caplen


class PcapWriter:
    """Streaming pcap writer.

    >>> with PcapWriter(path) as w:            # doctest: +SKIP
    ...     w.write(packet)
    """

    def __init__(self, path: str | Path | BinaryIO, snaplen: int = 65535) -> None:
        if hasattr(path, "write"):
            self._fh: BinaryIO = path  # type: ignore[assignment]
            self._owns = False
        else:
            self._fh = open(path, "wb")
            self._owns = True
        self._snaplen = snaplen
        self._fh.write(_GLOBAL_HEADER["<"].pack(
            _MAGIC_LE, 2, 4, 0, 0, snaplen, _LINKTYPE_ETHERNET))

    def write(self, packet: Packet) -> None:
        self.write_raw(packet.timestamp, packet.encode())

    def write_raw(self, timestamp: float, data: bytes) -> None:
        sec = int(timestamp)
        usec = int(round((timestamp - sec) * 1_000_000))
        if usec == 1_000_000:  # avoid rounding past the next second
            sec, usec = sec + 1, 0
        # Honour the snaplen declared in the global header: caplen is the
        # truncated capture, origlen records the true wire length.  One
        # write call per record: header + body together.
        captured = data[: self._snaplen]
        self._fh.write(
            _RECORD_HEADER["<"].pack(sec, usec, len(captured), len(data))
            + captured)

    def flush(self, sync: bool = False) -> None:
        """Flush buffered records; ``sync=True`` additionally fsyncs, for
        writers (quarantine) whose records are crash evidence."""
        self._fh.flush()
        if sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapReader:
    """Streaming pcap reader yielding decoded :class:`Packet` objects.

    A capture that ends mid-record — a sensor crash, a full disk, a
    partial transfer — raises the typed
    :class:`~repro.errors.TruncatedCaptureError` by default.  With
    ``salvage=True`` the reader instead yields the complete record
    prefix, sets :attr:`truncated`, and counts the event in the
    ``repro_pcap_truncated_total`` counter of ``registry``,
    so a production replay survives a damaged tail without silently
    pretending the file was whole.

    With ``streaming=True`` the reader tails a *growing* capture (a file
    a sniffer is still appending to, or a FIFO): a short read is no
    longer a verdict.  Records are consumed only once header *and* body
    are fully buffered, so end-of-data mid-record just means "wait for
    more" — :meth:`poll` returns ``None``, the partial tail stays
    buffered, and a later poll picks up exactly where the writer left
    off.  Only :meth:`finalize` — the caller declaring the source
    complete — turns a pending partial record into a truncation (counted
    and, without ``salvage``, raised).  The global header may likewise
    arrive late; polls before it is complete return ``None``.
    """

    def __init__(self, path: str | Path | BinaryIO, *,
                 salvage: bool = False,
                 streaming: bool = False,
                 registry: MetricsRegistry | None = None) -> None:
        self.salvage = salvage
        self.streaming = streaming
        #: set once a truncated final record has been encountered (and,
        #: under ``salvage``, swallowed).
        self.truncated = False
        #: complete records read so far (the salvageable prefix length).
        self.records_read = 0
        registry = registry if registry is not None else MetricsRegistry()
        self._truncated_counter = registry.counter(
            "repro_pcap_truncated_total")
        if hasattr(path, "read"):
            self.path = None
            self._fh: BinaryIO = path  # type: ignore[assignment]
            self._owns = False
        else:
            self.path = os.fspath(path)
            self._fh = open(path, "rb")
            self._owns = True
        # Buffered record loop state: records are sliced out of large read
        # chunks instead of paying two file-object calls per record.
        self._buf = b""
        self._pos = 0
        self._header_parsed = False
        #: logical file offset of the next unread record — the resume
        #: cursor a checkpoint stores (header-relative consumption, not
        #: the raw file position, which runs ahead by the buffer).
        self._consumed = 0
        if streaming:
            self._try_parse_header()  # may legitimately be incomplete yet
        elif not self._try_parse_header():
            # Nothing salvageable before the global header is complete.
            raise TruncatedCaptureError("truncated pcap global header")

    def _try_parse_header(self) -> bool:
        """Parse the 24-byte global header once fully buffered; ``False``
        while it is still incomplete (streaming sources fill in later)."""
        if self._header_parsed:
            return True
        if self._fill(24) < 24:
            return False
        header = self._buf[self._pos:self._pos + 24]
        (magic,) = _MAGIC_STRUCT.unpack(header[:4])
        if magic == _MAGIC_LE:
            self._endian = "<"
        elif magic == _MAGIC_BE:
            self._endian = ">"
        else:
            raise PcapError(f"bad pcap magic: {magic:#010x}")
        _vmaj, _vmin, _tz, _sig, _snap, linktype = (
            _GLOBAL_HEADER[self._endian].unpack(header))[1:]
        if linktype != _LINKTYPE_ETHERNET:
            raise PcapError(f"unsupported linktype {linktype} (want Ethernet)")
        self._pos += 24
        self._consumed = 24
        self._header_parsed = True
        return True

    def tell(self) -> int:
        """Byte offset of the next unread record (24 once the global
        header is parsed; 0 before).  Stable across buffering — this is
        the offset :meth:`seek_to` resumes from after a restart."""
        return self._consumed

    def seek_to(self, offset: int) -> None:
        """Position the reader at a previously :meth:`tell`-ed offset.

        Only record-boundary offsets obtained from :meth:`tell` are
        valid; anything else desynchronizes record framing.  Requires
        the global header to have been parsed (a capture shorter than
        its header has no boundaries to seek to).
        """
        if not self._header_parsed:
            raise PcapError("cannot seek before the pcap header is parsed")
        if offset < 24:
            offset = 24
        self._fh.seek(offset)
        self._buf = b""
        self._pos = 0
        self._consumed = offset

    def _fill(self, need: int) -> int:
        """Buffer at least ``need`` unconsumed bytes if the source has
        them; returns the bytes actually available.  Never consumes."""
        buf, pos = self._buf, self._pos
        while len(buf) - pos < need:
            chunk = self._fh.read(max(_READ_CHUNK, need - (len(buf) - pos)))
            if not chunk:
                break
            if pos:  # compact the consumed prefix before growing
                buf, pos = buf[pos:], 0
            buf += chunk
        self._buf, self._pos = buf, pos
        return len(buf) - pos

    @property
    def pending_partial(self) -> bool:
        """Unconsumed bytes are buffered that do not (yet) form a complete
        record — after :meth:`poll` returned ``None``, the mid-record tail
        a still-writing capture source has left us."""
        return len(self._buf) - self._pos > 0

    def poll(self) -> PcapRecord | None:
        """Next complete record, or ``None`` when the source has no full
        record buffered *right now* (streaming: try again once the
        capture has grown; a partial tail is left buffered, unconsumed)."""
        if not self._try_parse_header():
            return None
        avail = self._fill(_RECORD_HEADER_LEN)
        if avail < _RECORD_HEADER_LEN:
            return None
        header = self._buf[self._pos:self._pos + _RECORD_HEADER_LEN]
        sec, usec, caplen, _origlen = _RECORD_HEADER[self._endian].unpack(header)
        total = _RECORD_HEADER_LEN + caplen
        if self._fill(total) < total:
            return None
        data = self._buf[self._pos + _RECORD_HEADER_LEN:self._pos + total]
        self._pos += total
        self._consumed += total
        self.records_read += 1
        return PcapRecord(timestamp=sec + usec / 1_000_000, data=data)

    def poll_meta(self, prefix_len: int = PEEK_PREFIX_LEN) -> PcapRecordMeta | None:
        """Next complete record's *boundary* (offset, timestamp, caplen,
        header prefix) without materializing its body — the scan side of
        the fleet's pcap-offset transport.

        Consumption semantics match :meth:`poll` exactly: the record is
        only consumed once fully buffered (so an extent handed to a
        worker always names bytes that exist on disk), ``None`` means
        "no complete record right now", and :meth:`tell` /
        :meth:`seek_to` offsets interleave freely with :meth:`poll`.
        The body bytes pass through the read buffer but are never
        sliced, copied, or decoded — only ``prefix_len`` bytes are.
        """
        if not self._try_parse_header():
            return None
        if self._fill(_RECORD_HEADER_LEN) < _RECORD_HEADER_LEN:
            return None
        header = self._buf[self._pos:self._pos + _RECORD_HEADER_LEN]
        sec, usec, caplen, _origlen = _RECORD_HEADER[self._endian].unpack(header)
        total = _RECORD_HEADER_LEN + caplen
        if self._fill(total) < total:
            return None
        offset = self._consumed
        start = self._pos + _RECORD_HEADER_LEN
        prefix = bytes(self._buf[start:start + min(caplen, prefix_len)])
        self._pos += total
        self._consumed += total
        self.records_read += 1
        return PcapRecordMeta(offset=offset, timestamp=sec + usec / 1_000_000,
                              caplen=caplen, prefix=prefix, path=self.path)

    def poll_packet(self) -> Packet | None:
        """Like :meth:`poll`, decoded to a :class:`Packet`."""
        rec = self.poll()
        if rec is None:
            return None
        return Packet.decode(rec.data, timestamp=rec.timestamp)

    def finalize(self) -> bool:
        """Declare the (streaming) source complete.

        Returns ``True`` when the capture ended cleanly at a record
        boundary.  A pending partial record is *now* a real truncation:
        counted, and raised unless ``salvage``.
        """
        if self.pending_partial:
            self._note_truncation("capture finalized mid-record")
            return False
        return True

    def records(self) -> Iterator[PcapRecord]:
        """Yield raw records without protocol decoding.

        Non-streaming: a mid-record end of file is a truncation (salvaged
        or raised).  Streaming: iteration simply stops at the first point
        where no complete record is buffered — poll again later.
        """
        while True:
            rec = self.poll()
            if rec is not None:
                yield rec
                continue
            if self.streaming:
                return
            # Distinguish the clean end (record boundary, nothing pending)
            # from a capture cut off mid-header or mid-body.
            if not self.pending_partial:
                return
            avail = len(self._buf) - self._pos
            message = ("truncated pcap record header"
                       if avail < _RECORD_HEADER_LEN
                       else "truncated pcap record body")
            self._note_truncation(message)
            return

    def _note_truncation(self, message: str) -> bool:
        """Record a mid-record truncation; returns True when salvaging
        (stop iteration cleanly) and raises otherwise."""
        self.truncated = True
        self._truncated_counter.inc()
        if self.salvage:
            return True
        raise TruncatedCaptureError(message,
                                    complete_records=self.records_read)

    def __iter__(self) -> Iterator[Packet]:
        for rec in self.records():
            yield Packet.decode(rec.data, timestamp=rec.timestamp)

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_pcap(path: str | Path, packets: Iterable[Packet]) -> int:
    """Write an iterable of packets; returns the number written."""
    count = 0
    with PcapWriter(path) as writer:
        for pkt in packets:
            writer.write(pkt)
            count += 1
    return count


def read_pcap(path: str | Path) -> list[Packet]:
    """Read a whole pcap file into memory."""
    with PcapReader(path) as reader:
        return list(reader)
