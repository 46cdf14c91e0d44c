"""Binary detection and extraction (stage (b) of Figure 3).

Given an application payload (a reassembled request or a raw datagram),
locate the regions that plausibly contain attacker-supplied machine code
and emit them as *binary frames* for the disassembler.  The heuristics
follow §4.2:

- a protocol-aware pass over HTTP requests: suspicious repetition in the
  request target or body marks an overflow; ``%uXXXX`` runs are decoded to
  their binary form;
- NOP-sled location: code starts where the sled ends;
- the return-address block (a repeated 4-byte pattern) bounds the frame on
  the right;
- a binary-content score keeps plain text (benign web/mail traffic) away
  from the disassembler entirely — this is the stage that makes the
  pipeline "more efficient than what is reported in [5]".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import MetricField, MetricsRegistry, StageTimer, Tracer, bind_metrics
from .http import http_response_body, parse_http_request
from .mime import find_base64_regions, looks_like_smtp_data
from .repetition import find_byte_runs, find_repeated_dwords
from .sled import find_sleds, screen_regions
from .unicode import find_unicode_runs, percent_decode

__all__ = ["BinaryFrame", "BinaryExtractor", "binary_fraction"]

_PRINTABLE = np.zeros(256, dtype=bool)
for _b in range(0x20, 0x7F):
    _PRINTABLE[_b] = True
for _b in (0x09, 0x0A, 0x0D):
    _PRINTABLE[_b] = True


def binary_fraction(data: bytes) -> float:
    """Fraction of bytes outside printable ASCII + whitespace."""
    if not data:
        return 0.0
    arr = np.frombuffer(data, dtype=np.uint8)
    return float(1.0 - _PRINTABLE[arr].mean())


@dataclass
class BinaryFrame:
    """A candidate machine-code region extracted from a payload."""

    data: bytes
    origin: str  # e.g. "http-target-unicode", "http-body-overflow", "raw-sled"
    offset: int  # offset of the source region within the payload
    note: str = ""

    def __len__(self) -> int:
        return len(self.data)


class BinaryExtractor:
    """Extracts binary frames from application payloads."""

    payloads_seen = MetricField("repro_extract_payloads_total")
    frames_emitted = MetricField("repro_extract_frames_total")
    bytes_in = MetricField("repro_extract_bytes_in_total")
    bytes_out = MetricField("repro_extract_bytes_out_total")

    def __init__(
        self,
        min_frame: int = 8,
        max_frame: int = 128 * 1024,
        repetition_min: int = 32,
        sled_min: int = 24,
        unicode_min_escapes: int = 8,
        raw_binary_threshold: float = 0.20,
        max_frames_per_payload: int = 8,
        raw_frame_cap: int = 4096,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.min_frame = min_frame
        self.max_frame = max_frame
        self.repetition_min = repetition_min
        self.sled_min = sled_min
        self.unicode_min_escapes = unicode_min_escapes
        self.raw_binary_threshold = raw_binary_threshold
        self.max_frames_per_payload = max_frames_per_payload
        #: unattributed binary blobs (no sled, no protocol anchor) are
        #: analyzed by prefix only; attacker code reached through an
        #: overflow is located by the other heuristics, with exact offsets.
        self.raw_frame_cap = raw_frame_cap
        registry = bind_metrics(self, registry)
        self.timer = StageTimer("extract", registry, tracer)

    # -- public -------------------------------------------------------------

    def extract(self, payload: bytes) -> list[BinaryFrame]:
        """All binary frames found in one application payload.

        Accepts the zero-copy ``memoryview`` payloads the decode chain
        produces; the view is materialized exactly once, here, where the
        protocol parsers need real ``bytes`` (and where frame data — the
        frame-cache key — is about to be derived)."""
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        with self.timer.timed(nbytes=len(payload)):
            return self._extract(payload)

    def _extract(self, payload: bytes) -> list[BinaryFrame]:
        self.payloads_seen += 1
        self.bytes_in += len(payload)
        request = parse_http_request(payload)
        response = http_response_body(payload) if request is None else None
        if request is not None:
            frames = self._extract_http(payload, request)
        elif response is not None:
            body_offset, body = response
            frames = (self._scan_body("http-response", body_offset, body)
                      if len(body) >= self.min_frame else [])
        elif looks_like_smtp_data(payload):
            frames = self._extract_smtp(payload)
        else:
            frames = self._extract_raw(payload)
        frames = self._dedupe(frames)[: self.max_frames_per_payload]
        self.frames_emitted += len(frames)
        self.bytes_out += sum(len(f) for f in frames)
        return frames

    # -- HTTP ---------------------------------------------------------------

    def _extract_http(self, payload: bytes, request) -> list[BinaryFrame]:
        frames: list[BinaryFrame] = []
        regions = [
            ("http-target", request.target_offset, request.target),
            ("http-body", request.body_offset, request.body),
        ]
        # One vectorized pass decides which regions can hold a sled at
        # all; the per-region sled detector then runs only where it can
        # find something (identical results, see screen_regions).
        sled_mask = screen_regions([r for _, _, r in regions],
                                   min_length=self.sled_min)
        for (name, base_offset, region), sled_ok in zip(regions, sled_mask):
            if len(region) < self.min_frame:
                continue
            frames.extend(self._scan_region(name, base_offset, region,
                                            sled_ok=bool(sled_ok)))
        return frames

    def _scan_region(self, name: str, base: int, region: bytes,
                     sled_ok: bool = True) -> list[BinaryFrame]:
        frames: list[BinaryFrame] = []

        # 1. %uXXXX runs decode straight to binary frames.
        for run in find_unicode_runs(region, min_escapes=self.unicode_min_escapes):
            decoded = run.decode()
            if len(decoded) >= self.min_frame:
                frames.append(BinaryFrame(
                    data=decoded[: self.max_frame],
                    origin=f"{name}-unicode",
                    offset=base + run.start,
                    note=f"{len(run.escapes)} %u escapes",
                ))

        # 2. Suspicious repetition: content following a long identical-byte
        #    run is where the exploit payload lives.
        for run in find_byte_runs(region, min_length=self.repetition_min):
            tail = region[run.end:]
            if len(tail) < self.min_frame:
                continue
            # %u content after the run is already handled above; extract the
            # raw remainder for non-unicode exploits.
            candidate = percent_decode(self._trim_return_block(tail))
            if len(candidate) >= self.min_frame and binary_fraction(candidate) > 0.05:
                frames.append(BinaryFrame(
                    data=candidate[: self.max_frame],
                    origin=f"{name}-overflow",
                    offset=base + run.end,
                    note=f"after {run.length}x{run.value:#04x} run",
                ))

        # 3. Sleds inside the region (e.g. binary POST bodies).
        if sled_ok:
            frames.extend(self._sled_frames(name, base, region))
        return frames

    # -- HTTP responses (server-to-client content) ----------------------------

    def _scan_body(self, name: str, base: int, body: bytes) -> list[BinaryFrame]:
        """Response bodies: sled/unicode/repetition heuristics like request
        regions, plus a body-aligned raw frame for binary downloads (the
        body boundary gives the disassembler a correct starting offset)."""
        frames = self._scan_region(name, base, body)
        if frames:
            return frames
        fraction = binary_fraction(body)
        if fraction >= self.raw_binary_threshold:
            frames.append(BinaryFrame(
                data=body[: min(self.max_frame, self.raw_frame_cap)],
                origin=f"{name}-body",
                offset=base,
                note=f"binary fraction {fraction:.2f}",
            ))
        return frames

    # -- SMTP (email-worm extension) ---------------------------------------

    def _extract_smtp(self, payload: bytes) -> list[BinaryFrame]:
        """Decode base64 attachment bodies and scan the *decoded* bytes —
        the delivery channel of email worms (the paper's named future
        work)."""
        frames: list[BinaryFrame] = []
        regions = [region for region in find_base64_regions(payload)
                   if len(region.data) >= self.min_frame]
        sled_mask = screen_regions([r.data for r in regions],
                                   min_length=self.sled_min)
        for region, sled_ok in zip(regions, sled_mask):
            decoded = region.data
            sled_frames = (self._sled_frames("b64-attachment", region.start,
                                             decoded) if sled_ok else [])
            if sled_frames:
                frames.extend(sled_frames)
                continue
            if binary_fraction(decoded) >= self.raw_binary_threshold:
                frames.append(BinaryFrame(
                    data=decoded[: min(self.max_frame, self.raw_frame_cap)],
                    origin="b64-attachment",
                    offset=region.start,
                    note=("announced base64" if region.explicit
                          else "heuristic base64 run"),
                ))
        return frames

    # -- raw payloads ----------------------------------------------------------

    def _extract_raw(self, payload: bytes) -> list[BinaryFrame]:
        if len(payload) < self.min_frame:
            return []
        frames = self._sled_frames("raw", 0, payload)
        if frames:
            return frames
        # No sled: only consider payloads that are substantially binary.
        fraction = binary_fraction(payload)
        if fraction < self.raw_binary_threshold:
            return []
        candidate = self._trim_return_block(payload)
        if len(candidate) < self.min_frame:
            return []
        return [BinaryFrame(
            data=candidate[: min(self.max_frame, self.raw_frame_cap)],
            origin="raw",
            offset=0,
            note=f"binary fraction {fraction:.2f}",
        )]

    def _sled_frames(self, name: str, base: int, region: bytes) -> list[BinaryFrame]:
        frames: list[BinaryFrame] = []
        for sled in find_sleds(region, min_length=self.sled_min):
            # Frame alignment: every byte of a *pure* NOP-like run is a
            # single-byte instruction, so decoding from inside one is
            # always instruction-aligned and flows into the code that
            # follows.  The detector's region may have merged isolated
            # non-NOP bytes at either end (text look-alikes before the
            # sled, decoder bytes after it), so we anchor at the start of
            # the last pure run inside the region — which is the real
            # sled's tail whichever way the detector overshot.
            entry = sled.start
            if sled.density < 1.0:
                slice_ = region[sled.start:sled.end]
                pure_runs = find_sleds(
                    slice_, min_length=min(self.sled_min, sled.length),
                    min_density=1.0,
                )
                if pure_runs:
                    entry = sled.start + pure_runs[-1].start
            code = self._trim_return_block(region[entry:])
            sled_prefix = sled.end - entry
            if len(code) - sled_prefix >= self.min_frame:
                frames.append(BinaryFrame(
                    data=code[: self.max_frame],
                    origin=f"{name}-sled",
                    offset=base + entry,
                    note=f"sled {sled.length}B density {sled.density:.2f}",
                ))
        return frames

    # -- helpers ---------------------------------------------------------------

    def _trim_return_block(self, data: bytes) -> bytes:
        """Cut the frame at the start of a trailing repeated-dword block
        (the return-address region)."""
        best = len(data)
        for run in find_repeated_dwords(data, min_repeats=6):
            # Only trim if the run extends to (near) the end of the data.
            if run.end >= len(data) - 8 and run.start < best:
                best = run.start
        return data[:best]

    _ORIGIN_SUFFIXES = ("-unicode", "-overflow", "-sled", "-body")

    @classmethod
    def _origin_group(cls, origin: str) -> str:
        """Region name an origin was derived from ("http-body-sled" →
        "http-body"): frames from different regions cannot be substrings
        of each other by construction, so containment checks only need to
        run within a group."""
        for suffix in cls._ORIGIN_SUFFIXES:
            if origin.endswith(suffix):
                return origin[: -len(suffix)]
        return origin

    @classmethod
    def _dedupe(cls, frames: list[BinaryFrame]) -> list[BinaryFrame]:
        """Drop frames whose data is a suffix/duplicate of an earlier one.

        Exact duplicates (the common case: the same decoded run reached via
        two heuristics, or a worm payload repeated verbatim) are caught by a
        hash set in O(1); the quadratic substring scan is reserved for
        same-region frames, where one heuristic's frame can genuinely be a
        suffix of another's.
        """
        out: list[BinaryFrame] = []
        seen_exact: set[bytes] = set()
        by_group: dict[str, list[bytes]] = {}
        for frame in sorted(frames, key=lambda f: -len(f.data)):
            if frame.data in seen_exact:
                continue
            group = cls._origin_group(frame.origin)
            kept = by_group.setdefault(group, [])
            if any(frame.data in prior for prior in kept):
                continue
            seen_exact.add(frame.data)
            kept.append(frame.data)
            out.append(frame)
        out.sort(key=lambda f: f.offset)
        return out
