"""Crash quarantine: preserve what hurt us, then move on.

When the stage firewall contains a fault, the offending input must not
simply vanish — an operator (or an analyst chasing a crafted
detector-evasion payload) needs the exact bytes to reproduce the
failure offline.  :class:`QuarantineWriter` appends each offender to a
standard pcap (openable in tcpdump/Wireshark, replayable through
``repro-sensor``) plus a JSON-Lines sidecar (``<path>.meta.jsonl``)
recording *why* each record is there.

Failure-proof by construction: quarantine runs inside the fault path,
so its own errors are swallowed and counted (``write_errors``) — a full
disk must not turn containment into a crash.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..net.layers import Ipv4
from ..net.packet import Packet
from ..net.pcap import PcapWriter
from ..obs import MetricsRegistry

__all__ = ["QuarantineWriter"]

#: Synthetic-packet payload cap: an IPv4 total length is 16 bits, so a
#: reassembled stream payload larger than this is truncated on write
#: (the sidecar records the original length).
_MAX_SYNTH_PAYLOAD = 65000

#: Consecutive write failures before the writer stops touching the disk.
#: A full disk fails every record; retrying each one from inside the
#: fault path just burns syscalls on a path that cannot succeed.
_MAX_CONSECUTIVE_ERRORS = 8


class QuarantineWriter:
    """Appends quarantined packets/payloads to a pcap + JSONL sidecar.

    Files are opened lazily on the first record, so configuring a
    quarantine path costs nothing on a clean run.  Records are fsynced
    as they land — quarantine evidence usually precedes a crash, which
    is exactly when the page cache is lost.
    """

    def __init__(self, path: str | Path,
                 registry: MetricsRegistry | None = None) -> None:
        self.path = Path(path)
        self.meta_path = self.path.with_name(self.path.name + ".meta.jsonl")
        self.written = 0
        self.write_errors = 0
        #: set after ``_MAX_CONSECUTIVE_ERRORS`` straight failures; the
        #: writer then refuses further disk I/O (still counting each
        #: lost record) until re-constructed.
        self.disabled = False
        self._consecutive_errors = 0
        self._pcap: PcapWriter | None = None
        self._meta = None
        self.bind_registry(
            registry if registry is not None else MetricsRegistry())

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Surface write failures on a shared registry
        (``repro_quarantine_write_errors_total``); the engine's stage
        firewall binds its registry here automatically."""
        self._error_counter = registry.counter(
            "repro_quarantine_write_errors_total")

    # -- recording ----------------------------------------------------------

    def record(self, reason: str, stage: str, pkt: Packet | None = None,
               payload: bytes | None = None, detail: str = "") -> None:
        """Quarantine one offender.

        ``pkt`` is the triggering packet when one exists; ``payload`` is
        the analyzed byte string when the fault happened past reassembly
        (the stream payload differs from any single packet).  Either or
        both may be given; at least one should be.
        """
        if self.disabled:
            self._count_error()
            return
        try:
            record_pkt = pkt
            truncated_from = None
            if record_pkt is None or (payload is not None
                                      and payload != record_pkt.payload):
                record_pkt, truncated_from = self._synthesize(pkt, payload)
            self._open()
            self._pcap.write(record_pkt)
            self._pcap.flush(sync=True)
            entry = {
                "index": self.written,
                "timestamp": record_pkt.timestamp,
                "reason": reason,
                "stage": stage,
                "source": record_pkt.src or "?",
                "destination": record_pkt.dst or "?",
                "payload_len": len(payload if payload is not None
                                   else record_pkt.payload),
                "detail": detail,
            }
            if truncated_from is not None:
                entry["truncated_from"] = truncated_from
            self._meta.write(json.dumps(entry) + "\n")
            self._meta.flush()
            os.fsync(self._meta.fileno())
            self.written += 1
            self._consecutive_errors = 0
        except Exception:
            # Quarantine is best-effort evidence collection inside the
            # fault path; its own failure (ENOSPC, I/O error, a packet
            # that refuses to re-encode) must never propagate.
            self._count_error()
            self._consecutive_errors += 1
            if self._consecutive_errors >= _MAX_CONSECUTIVE_ERRORS:
                self.disabled = True
                self.close()

    def _count_error(self) -> None:
        self.write_errors += 1
        self._error_counter.inc()

    def _synthesize(self, pkt: Packet | None,
                    payload: bytes | None) -> tuple[Packet, int | None]:
        """A writable packet carrying ``payload`` (attribution copied
        from ``pkt`` when available)."""
        data = payload if payload is not None else b""
        truncated_from = None
        if len(data) > _MAX_SYNTH_PAYLOAD:
            truncated_from = len(data)
            data = data[:_MAX_SYNTH_PAYLOAD]
        ip = (Ipv4(src=pkt.ip.src, dst=pkt.ip.dst, proto=pkt.ip.proto)
              if pkt is not None and pkt.ip is not None else Ipv4())
        return Packet(ip=ip, payload=data,
                      timestamp=pkt.timestamp if pkt else 0.0), truncated_from

    # -- lifecycle ----------------------------------------------------------

    def _open(self) -> None:
        if self._pcap is None:
            self._pcap = PcapWriter(self.path)
            self._meta = open(self.meta_path, "w")

    def close(self) -> None:
        pcap, meta = self._pcap, self._meta
        self._pcap = None
        self._meta = None
        for handle in (pcap, meta):
            if handle is None:
                continue
            try:
                handle.close()
            except OSError:
                # A close that fails (deferred ENOSPC flush) is one more
                # absorbed write error, not a crash.
                self._count_error()

    def __enter__(self) -> "QuarantineWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
