"""The five-stage semantic NIDS (Figure 3).

Packet in → (a) traffic classifier → (b) binary detection & extraction →
(c) disassembler → (d) IR generator → (e) semantic analyzer → alerts.

Stages (c)-(e) live in :class:`repro.core.SemanticAnalyzer`; this module
owns the plumbing: per-packet classification, TCP stream reassembly with
incremental re-analysis, per-stream alert deduplication, and the response
blocklist.  Stages (b)-(e) over one payload are :func:`analyze_payload`,
a pure function of its arguments: the serial engine calls it in-process
and the parallel engine's workers call the same function, and both hand
its :class:`PayloadResult` to :meth:`SemanticNids._merge`.  In front of
it sits the payload memo (:meth:`SemanticNids._analyze_payload`): a
payload byte-identical to one already analysed is answered with the
stored result, on every engine alike.

Every stage runs behind the :class:`~repro.resilience.StageFirewall`
(docs/robustness.md): an exception escaping a stage is counted,
optionally quarantined, and surfaced as a degraded-mode alert — the
sensor keeps processing the next packet instead of dying on hostile
input.  ``analysis_deadline_ms`` additionally bounds the work any one
payload can extract from stages (c)-(e).

The engine contract
-------------------
:class:`SemanticNids`, :class:`~repro.nids.ParallelSemanticNids` and
:class:`~repro.nids.SensorFleet` are three *engines*: anything that
drives one — :class:`~repro.nids.SensorDaemon` above all, which alone
owns the journal, checkpoints, resume, tailing and the periodic duties —
relies on these members and on nothing else:

- ``process_packet(item) -> alerts`` — feed one input unit (a decoded
  :class:`~repro.net.packet.Packet`; the offset fleet takes a
  :class:`~repro.net.pcap.PcapRecordMeta`).  Alerts may trail the packet
  that caused them, but they always come out in one deterministic order,
  whatever the process scheduling.
- ``drain() -> alerts`` — a barrier: everything owed for the input
  handed in so far, without finalising any stream.  Afterwards nothing
  is in flight, which is what makes ``snapshot_state()`` complete.  The
  serial engine owes nothing and returns ``[]``.
- ``flush() -> alerts`` — ``drain()`` plus the unexamined stream tails.
- ``alerts`` — every alert handed out (also by the drain inside a
  reload) is appended here first, in that same order; a long-running
  owner empties the list as it delivers; ``stats.alerts`` keeps count.
- ``snapshot_state() -> dict`` / ``restore_state(dict)`` — picklable
  detection state, taken after a ``drain()``; restoring raises
  :class:`ValueError` for a snapshot this engine must not continue
  from (other template library, other shard layout).
- ``reload_template_set(name) -> bool`` — digest-keyed hot swap.
- ``close()``, ``registry`` and ``stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

from ..classify.classifier import TrafficClassifier
from ..classify.darkspace import DarkSpaceMonitor
from ..classify.fanout import SmtpFanoutMonitor
from ..classify.honeypot import HoneypotRegistry
from ..core.analyzer import FrameCache, SemanticAnalyzer, content_key
from ..core.library import library_digest, resolve_template_set
from ..core.template import Template, TemplateMatch
from ..errors import DeadlineExceeded
from ..extract.frames import BinaryExtractor
from ..net.defrag import IpDefragmenter
from ..net.flow import FlowKey, StreamReassembler
from ..net.layers import Ipv4
from ..net.packet import Packet
from ..obs import MetricsRegistry, NullTracer, Tracer
from ..resilience.deadline import Deadline
from ..resilience.firewall import DEGRADED_SEVERITY, StageFirewall
from ..resilience.quarantine import QuarantineWriter
from .alerts import Alert, BlockList
from .options import SensorOptions
from .stats import NidsStats

__all__ = ["SemanticNids"]


@dataclass
class _StreamState:
    """Per-stream analysis bookkeeping."""

    analyzed_len: int = 0
    analysis_rounds: int = 0
    alerted_templates: set[str] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class FrameEntry:
    """One thing a payload's analysis produced: a template match, or
    (``fault=True``) a contained stage fault, flattened to the strings
    its alert carries — ``origin`` is then the faulting stage.  Frozen:
    a memoised entry is shared by every alert that cites it."""

    template: str
    severity: str
    origin: str
    detail: str
    match: TemplateMatch | None = None
    fault: bool = False


@dataclass(frozen=True, slots=True)
class PayloadResult:
    """Outcome of stages (b)-(e) on one payload; ``entries`` are in
    frame order."""

    entries: tuple[FrameEntry, ...] = ()
    frames_extracted: int = 0
    frames_analyzed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def _fault_entry(site: str, exc: Exception) -> FrameEntry:
    return FrameEntry(template=StageFirewall.template_for(exc),
                      severity=DEGRADED_SEVERITY,
                      origin=StageFirewall.stage_for(site, exc),
                      detail=f"{type(exc).__name__}: {exc}", fault=True)


def analyze_payload(extractor: BinaryExtractor, analyzer: SemanticAnalyzer,
                    payload: bytes,
                    deadline_units: int | None) -> PayloadResult:
    """Stages (b)-(e) on one payload: extract frames, analyze each.

    Stage faults are contained here — recorded as entries rather than
    raised — so an exception in extraction or analysis costs one degraded
    alert, never the caller (a worker process, or the sensor itself).
    """
    try:
        frames = extractor.extract(payload)
    except Exception as exc:  # noqa: BLE001 — firewall: contain, don't crash
        return PayloadResult(entries=(_fault_entry("extract", exc),))
    entries: list[FrameEntry] = []
    analyzed = hits = 0
    deadline = Deadline(deadline_units) if deadline_units else None
    for frame in frames:
        try:
            analysis = analyzer.analyze_frame(frame.data, deadline=deadline)
        except Exception as exc:  # noqa: BLE001 — contain per-frame faults
            entries.append(_fault_entry("analyze", exc))
            if isinstance(exc, DeadlineExceeded):
                break  # the budget is per-payload: remaining frames forfeit
            continue
        analyzed += 1
        hits += analysis.cached
        for match in analysis.matches:
            entries.append(FrameEntry(
                template=match.template.name,
                severity=match.template.severity,
                origin=frame.origin, detail=match.summary(), match=match))
    misses = analyzed - hits if analyzer.frame_cache is not None else 0
    return PayloadResult(tuple(entries), len(frames), analyzed, hits, misses)


def build_stages(options: SensorOptions,
                 templates: list[Template] | None = None, **obs):
    """Stages (b)-(e) as ``options`` configures them, for one process
    (the sensor's own, or a parallel worker's): ``(extractor, analyzer,
    deadline_units)``, what :func:`analyze_payload` takes."""
    if templates is None:
        templates = resolve_template_set(options.template_set)
    units = (Deadline.from_ms(options.analysis_deadline_ms).budget_units
             if options.analysis_deadline_ms else None)
    return (BinaryExtractor(**obs),
            SemanticAnalyzer(templates=templates,
                             frame_cache_size=options.frame_cache_size,
                             fastpath=options.fastpath, **obs),
            units)


class SemanticNids:
    """The complete NIDS.

    Configured by a :class:`~repro.nids.SensorOptions` record: handed
    over as ``options``, and/or built from the remaining keywords, each
    a field of the record (``TypeError`` for an unknown one,
    ``ValueError`` out of range).  Live objects stay ordinary keywords:

    templates:
        Template objects for the semantic analyzer, instead of the
        record's named ``template_set``.
    quarantine:
        Optional :class:`~repro.resilience.QuarantineWriter`; every input
        whose fault the stage firewall contains is preserved there.
    registry / tracer:
        One registry per sensor: every component registers its metrics
        there, ``self.stats`` is a view over them, and ``--metrics-out``
        snapshots it.
    """

    #: distinct payloads whose results are remembered (the payload memo;
    #: off together with the frame cache, ``frame_cache_size=0``).
    PAYLOAD_MEMO = 512

    def __init__(
        self,
        options: SensorOptions | None = None,
        *,
        templates: list[Template] | None = None,
        quarantine: QuarantineWriter | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        **keywords,
    ) -> None:
        self.options = options = (SensorOptions(**keywords) if options is None
                                  else replace(options, **keywords))
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        obs = dict(registry=self.registry, tracer=self.tracer)
        self.classifier = TrafficClassifier(
            honeypots=HoneypotRegistry.of(options.honeypots),
            darkspace=DarkSpaceMonitor(
                dark_networks=options.dark_networks,
                dark_hosts=options.dark_hosts,
                threshold=options.dark_threshold,
                exclude=options.dark_exclude,
            ),
            fanout=(SmtpFanoutMonitor(threshold=options.smtp_fanout_threshold)
                    if options.smtp_fanout_threshold is not None else None),
            enabled=options.classification_enabled,
            **obs,
        )
        self.defragmenter = IpDefragmenter(**obs)
        self.reassembler = StreamReassembler(max_streams=options.max_streams,
                                             on_evict=self._on_stream_evicted,
                                             **obs)
        self.extractor, self.analyzer, self._deadline_units = build_stages(
            options, templates, **obs)
        self._memo = (FrameCache(self.PAYLOAD_MEMO)
                      if self.analyzer.frame_cache is not None else None)
        self.blocklist = BlockList()
        self.firewall = StageFirewall(self.registry, quarantine=quarantine)
        self.stats = NidsStats(self.registry, self.tracer)
        self._template_reloads = self.registry.counter(
            "repro_template_reloads_total")
        self.alerts: list[Alert] = []
        # Read per packet: plain attributes, not record lookups.
        self.max_rounds_per_stream = options.max_rounds_per_stream
        self.reanalysis_growth = options.reanalysis_growth
        self.reanalysis_overlap = options.reanalysis_overlap
        self._stream_state: dict[FlowKey, _StreamState] = {}

    # -- packet path ---------------------------------------------------------

    def process_packet(self, pkt: Packet) -> list[Alert]:
        """Feed one packet; returns any alerts it produced.

        Stage faults (defragmentation, classification, reassembly) are
        contained per-packet: the offender is counted and quarantined,
        a degraded alert is returned, and the next packet proceeds
        through an intact pipeline.
        """
        self.stats.packets += 1
        self.stats.payload_bytes += len(pkt.payload)
        try:
            whole = self.defragmenter.feed(pkt)
        except Exception as exc:
            return self._contain_packet_fault("reassemble", pkt, exc)
        if whole is None:
            return []  # fragment buffered; the datagram is not complete yet
        pkt = whole
        # The components time themselves (classifier/reassembler/extractor/
        # analyzer each own a StageTimer on the shared registry); the
        # ``stats`` timers are views over the same metrics.
        try:
            forward = self.classifier.classify(pkt)
        except Exception as exc:
            return self._contain_packet_fault("classify", pkt, exc)
        if not forward:
            return []
        if pkt.is_tcp:
            try:
                stream = self.reassembler.feed(pkt)
            except Exception as exc:
                return self._contain_packet_fault("reassemble", pkt, exc)
            # Idle leg: streams the capture clock has left
            # ``Stream.IDLE_TIMEOUT`` behind get the round a flush would
            # have given them and are reaped, so half-open floods drain by
            # themselves.  Only the front of the table is ever looked at.
            new_alerts: list[Alert] = []
            while (idle := self.reassembler.idle(pkt.timestamp)) is not None:
                new_alerts += self._final_round(idle)
                self._reap(idle, "idle")
            if stream is None:
                return new_alerts
            state = self._stream_state.setdefault(stream.key, _StreamState())
            # Growth check via the stream's byte counter: no payload is
            # materialized unless a re-analysis is actually due.
            contiguous = stream.contiguous_length()
            exhausted = state.analysis_rounds >= self.max_rounds_per_stream
            grown = contiguous - state.analyzed_len
            if exhausted:
                # No round will read these bytes: don't hold them.
                self.reassembler.release(stream, contiguous)
            elif grown > 0 and (
                    state.analyzed_len == 0          # first payload bytes
                    or grown >= self.reanalysis_growth
                    or stream.fin_offset is not None):   # flush at close
                new_alerts += self._reanalyze(pkt, stream, state, contiguous)
            # End of life: closed, whole, and the closing round handed on.
            if (stream.fin_offset is not None
                    and (exhausted or state.analyzed_len >= contiguous)
                    and stream.complete()):
                self._reap(stream, "closed")
            return new_alerts
        if pkt.payload:
            return self._analyze_payload(pkt, pkt.payload, None)
        return []

    def process_trace(self, packets) -> list[Alert]:
        """Feed a whole capture; returns all alerts raised."""
        before = len(self.alerts)
        for pkt in packets:
            self.process_packet(pkt)
        self.flush()
        return self.alerts[before:]

    def drain(self) -> list[Alert]:
        """Everything owed for the packets fed so far — nothing: this
        engine resolves each packet before ``process_packet`` returns."""
        return []

    def flush(self) -> list[Alert]:
        """Complete any deferred analysis: streams with buffered growth
        that never crossed a re-analysis trigger get one final pass (the
        parallel engine additionally drains its worker queues here)."""
        before = len(self.alerts)
        self._finalize_streams()
        return self.alerts[before:]

    def _finalize_streams(self) -> None:
        """End-of-capture analysis of unexamined stream tails.

        Detection must not depend on the attacker's courtesy: a flow that
        ends without FIN, whose first segment was tiny and whose total
        growth stayed under ``reanalysis_growth``, would otherwise never
        be re-analyzed past its first bytes — an evasion by scheduling
        rather than by reassembly.  Idempotent: a second flush finds no
        new growth.
        """
        for stream in list(self.reassembler.streams.values()):
            self._final_round(stream)

    def _final_round(self, stream) -> list[Alert]:
        """Analyse a stream's unexamined tail, if it has one."""
        contiguous = stream.contiguous_length()
        state = self._stream_state.setdefault(stream.key, _StreamState())
        if (contiguous <= state.analyzed_len
                or state.analysis_rounds >= self.max_rounds_per_stream):
            return []
        # Attribution context: the stream's sender, stamped with its
        # last activity (there is no "current packet" for this round).
        pkt = Packet(ip=Ipv4(src=stream.key.src, dst=stream.key.dst,
                             proto=stream.key.proto),
                     timestamp=stream.stats.last_seen)
        return self._reanalyze(pkt, stream, state, contiguous)

    def _reap(self, stream, reason: str) -> None:
        """Let a stream go, with its analysis state, in one step."""
        self.reassembler.reap(stream, reason)
        self._stream_state.pop(stream.key, None)

    def _reanalyze(self, pkt: Packet, stream, state: _StreamState,
                   contiguous: int) -> list[Alert]:
        """One re-analysis round of a grown stream, attributed to ``pkt``.

        The stream's window is the grown suffix plus the overlap the last
        round left behind (sized to cover any frame/sled straddling the
        old boundary); once it is handed on, all but the next round's
        overlap is released.
        """
        state.analysis_rounds += 1
        state.analyzed_len = contiguous
        alerts = self._analyze_payload(pkt, stream.data(), state)
        self.reassembler.release(stream,
                                 contiguous - self.reanalysis_overlap)
        return alerts

    def _on_stream_evicted(self, key: FlowKey) -> None:
        """Reassembler eviction hook: drop the matching analysis state so
        ``_stream_state`` stays bounded by the reassembler's stream cap."""
        if self._stream_state.pop(key, None) is not None:
            self.stats.state_evicted += 1

    def close(self) -> None:
        """Release engine resources (worker pools, for the parallel
        engine).  The serial engine holds none."""
        self.flush()

    # -- crash-safe checkpointing --------------------------------------------

    #: 4: streams and fragment buffers are ``Assembler`` subclasses
    #: (3: a ``Stream`` carries ``fin_offset``).
    STATE_VERSION = 4

    def snapshot_state(self) -> dict:
        """Picklable snapshot of all detection-relevant mutable state.

        Covers per-source classifier memory (suspicious set, dark-space
        scanner records, SMTP fan-out records), the IP defragmentation
        buffers, TCP streams with their per-stream analysis state, and
        the blocklist — everything whose loss would change future
        alerts.  The analyzer's frame cache and the payload memo are
        *not* captured: they are performance-only and rebuilt on demand,
        and the parity suites pin that they never change the alert stream.
        Engine stat counters are likewise left to the metrics layer.
        """
        fanout = self.classifier.fanout
        return {
            "version": self.STATE_VERSION,
            "library_digest": self.library_digest(),
            "suspicious": set(self.classifier.suspicious),
            "darkspace": {
                "records": dict(self.classifier.darkspace.records),
                "flagged": self.classifier.darkspace.scanners_flagged,
            },
            "fanout": None if fanout is None else {
                "records": dict(fanout.records),
                "flagged": fanout.mailers_flagged,
            },
            "defrag_buffers": dict(self.defragmenter._buffers),
            "streams": dict(self.reassembler.streams),
            "stream_state": dict(self._stream_state),
            "blocked": dict(self.blocklist._blocked),
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate a :meth:`snapshot_state` payload into this engine.

        Raises :class:`ValueError` when the snapshot was taken under a
        different template library — resuming stale per-source state
        against changed templates would silently shape new detections.
        """
        if state.get("version") != self.STATE_VERSION:
            raise ValueError(
                f"checkpoint state version {state.get('version')!r} != "
                f"{self.STATE_VERSION}")
        if state.get("library_digest") != self.library_digest():
            raise ValueError(
                "checkpoint was taken under a different template library; "
                "refusing to resume (re-run without --resume or restore "
                "the original templates)")
        self.classifier.suspicious = set(state["suspicious"])
        self.classifier.darkspace.records = dict(state["darkspace"]["records"])
        self.classifier.darkspace.scanners_flagged = state["darkspace"]["flagged"]
        if state["fanout"] is not None and self.classifier.fanout is not None:
            self.classifier.fanout.records = dict(state["fanout"]["records"])
            self.classifier.fanout.mailers_flagged = state["fanout"]["flagged"]
        # Both tables come back in the order they were held in: age
        # order here, recency order for the streams.
        self.defragmenter._buffers = OrderedDict(state["defrag_buffers"])
        self.defragmenter.bytes_buffered = sum(
            b.buffered for b in self.defragmenter._buffers.values())
        self.reassembler.streams = OrderedDict(state["streams"])
        self.reassembler.bytes_buffered = sum(
            s.buffered for s in self.reassembler.streams.values())
        self.reassembler._active_streams.set(len(self.reassembler.streams))
        self._stream_state = dict(state["stream_state"])
        self.blocklist._blocked = dict(state["blocked"])

    # -- hot template reload -------------------------------------------------

    def library_digest(self) -> bytes:
        """Digest of the currently loaded template library."""
        return library_digest(self.analyzer.templates)

    def reload_templates(self, templates: list[Template]) -> bool:
        """Hot-swap the template library, keyed on
        :func:`~repro.core.library.library_digest`: an unchanged digest
        is a no-op (returns ``False``); a changed one swaps the
        analyzer's library — frame cache, compiled match plans, and
        anchor prefilter invalidate atomically with it (see
        :meth:`~repro.core.analyzer.SemanticAnalyzer.set_templates`),
        and the payload memo in the same step — and counts
        ``repro_template_reloads_total``.
        """
        if library_digest(templates) == self.library_digest():
            return False
        self.analyzer.set_templates(templates)
        if self._memo is not None:
            self._memo.clear()
        self._template_reloads.inc()
        return True

    def reload_template_set(self, template_set: str) -> bool:
        """:meth:`reload_templates` by set name — the form every engine
        takes (worker processes can rebuild a set from its name only)."""
        return self.reload_templates(resolve_template_set(template_set))

    # -- stages (b)-(e) ---------------------------------------------------------

    def _analyze_payload(
        self, pkt: Packet, payload: bytes, state: _StreamState | None
    ) -> list[Alert]:
        """One payload through stages (b)-(e) — once per distinct
        content: the payload memo is asked first, under
        ``content_key(payload)`` + the template fingerprint, and a hit
        hands back the stored :class:`PayloadResult` itself (its entries,
        match and strings are shared by every alert that cites them)."""
        self.stats.payloads_analyzed += 1
        key = None
        if self._memo is not None:
            key = content_key(payload) + self.analyzer.template_fingerprint
            stored = self._memo.get(key)
            if stored is not None:
                self.stats.payload_memo_hits += 1
                return self._replay(pkt, payload, state, stored)
            self.stats.payload_memo_misses += 1
        return self._compute(pkt, payload, state, key)

    def _compute(self, pkt: Packet, payload: bytes,
                 state: _StreamState | None,
                 key: bytes | None) -> list[Alert]:
        """The memo missed (``key``) or is off (``None``): do the work —
        here, in-process; on a worker, for the parallel engine."""
        result = analyze_payload(self.extractor, self.analyzer, payload,
                                 self._deadline_units)
        self._remember(key, result)
        return self._merge(pkt, payload, state, result)

    def _remember(self, key: bytes | None, result: PayloadResult) -> None:
        """Memo admission, the one rule: only a fault-free result is
        canonical (a fault depends on the deadline and on what the frame
        cache held), so a degraded verdict is recomputed — and counted
        and quarantined — on every sighting."""
        if key is not None and not any(e.fault for e in result.entries):
            self._memo.put(key, result)

    def _replay(self, pkt: Packet, payload: bytes,
                state: _StreamState | None,
                result: PayloadResult) -> list[Alert]:
        """Fold in a result no stage work was spent on this time."""
        return self._merge(pkt, payload, state, result, replay=True)

    def _merge(self, pkt: Packet, payload: bytes,
               state: _StreamState | None, result: PayloadResult,
               replay: bool = False) -> list[Alert]:
        """Fold one payload's result into the sensor, in frame order:
        per-stream dedup, alerts, blocklist, fault containment, stats.
        The one merge routine — for a result computed in-process,
        shipped back from a worker or (``replay``) answered without any
        stage work, whose frames then all count as frame-cache hits."""
        self.stats.frames_extracted += result.frames_extracted
        self.stats.frames_analyzed += result.frames_analyzed
        if replay:
            self.stats.frame_cache_hits += result.frames_analyzed
        else:
            self.stats.frame_cache_hits += result.cache_hits
            self.stats.frame_cache_misses += result.cache_misses
        out: list[Alert] = []
        for entry in result.entries:
            out.extend(self._raise(entry, pkt, payload, state))
        return out

    def _raise(self, entry: FrameEntry, pkt: Packet, payload: bytes | None,
               state: _StreamState | None) -> list[Alert]:
        """One entry's alert, deduplicated per stream.  A fault is first
        counted and its input quarantined (containment is visible, never
        silent); a match additionally blocks its sender."""
        if entry.fault:
            self.firewall.contain_record(
                entry.origin, reason=entry.template, detail=entry.detail,
                pkt=pkt, payload=payload)
        if state is not None:
            if entry.template in state.alerted_templates:
                return []
            state.alerted_templates.add(entry.template)
        alert = Alert(
            timestamp=pkt.timestamp,
            source=pkt.src or "?",
            destination=pkt.dst or "?",
            template=entry.template,
            severity=entry.severity,
            frame_origin=entry.origin,
            detail=entry.detail,
            match=entry.match,
        )
        self.alerts.append(alert)
        self.stats.alerts += 1
        # Faults deliberately do NOT block: they can be provoked by
        # spoofed traffic, and auto-blocking on them would hand attackers
        # a denial-of-service primitive.
        if pkt.src and not entry.fault:
            self.blocklist.block(pkt.src, pkt.timestamp)
        return [alert]

    def _contain_packet_fault(self, site: str, pkt: Packet,
                              exc: Exception) -> list[Alert]:
        """A per-packet stage threw: count, quarantine, alert degraded."""
        return self._raise(_fault_entry(site, exc), pkt,
                           pkt.payload or None, None)

    # -- reporting ----------------------------------------------------------------

    def alert_sources(self) -> set[str]:
        return {a.source for a in self.alerts}

    def alerts_by_template(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for alert in self.alerts:
            out[alert.template] = out.get(alert.template, 0) + 1
        return out
