"""The semantic analyzer: disassemble → lift → propagate → match.

This is stage (c)+(d)+(e) of the paper's Figure 3 pipeline rolled into one
object: it accepts a binary frame (bytes extracted from network traffic, or
a whole binary for the host-based baseline), produces the prepared IR
trace, and reports which templates the code satisfies.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from ..digest import blake2b, sha1
from ..errors import DeadlineExceeded
from ..obs import ANALYZE_STAGE, MetricsRegistry, StageTimer, Tracer
from ..x86.disasm import disassemble_frame
from ..x86.instruction import Instruction
from .library import library_digest, paper_templates
from .matcher import MatchEngine, prepare_trace
from .template import Template, TemplateMatch

__all__ = ["AnalysisResult", "FrameCache", "SemanticAnalyzer", "content_key"]

_KEY = os.urandom(16)  # drawn once per process; never stored or sent


def content_key(data) -> bytes:
    """What every result cache calls "the same bytes": a keyed 128-bit
    BLAKE2b digest.  The key is secret and per-process, so a sender
    cannot construct two inputs that share a cache entry (a clean one
    sent first to have its verdict answer for an exploit)."""
    return blake2b(data, digest_size=16, key=_KEY).digest()


@dataclass
class AnalysisResult:
    """Outcome of analyzing one binary frame."""

    matches: list[TemplateMatch] = field(default_factory=list)
    instruction_count: int = 0
    bytes_consumed: int = 0
    frame_size: int = 0
    elapsed: float = 0.0
    cached: bool = False  # replayed from the frame cache

    @property
    def detected(self) -> bool:
        return bool(self.matches)

    def matched_names(self) -> list[str]:
        return [m.template.name for m in self.matches]

    def summary(self) -> str:
        if not self.matches:
            return (f"clean: {self.instruction_count} instructions "
                    f"({self.bytes_consumed}/{self.frame_size} bytes decoded)")
        return "; ".join(m.summary() for m in self.matches)


class FrameCache:
    """Bounded LRU of analysis results keyed by :func:`content_key`.

    Byte-identical frames are rampant in real attack traffic — a worm's
    payload is the same across thousands of victims, and even polymorphic
    engines emit repeated sleds — so a hit here skips the whole
    disassemble → lift → propagate → match pipeline.  The sensor keeps a
    second instance one level up, over whole payloads
    (:class:`~repro.nids.SemanticNids`), which skips extraction too.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, object] = OrderedDict()
        self.evictions = 0

    def get(self, key: bytes):
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
        return result

    def put(self, key: bytes, result) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (template-set hot reload: the old entries are
        unreachable under the new fingerprint anyway; this frees them)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class SemanticAnalyzer:
    """Matches a template set against binary frames.

    ``min_instructions`` discards frames that decode to fewer instructions
    than any meaningful behaviour needs — random payload bytes frequently
    decode to 1-3 junk instructions, and skipping them is a large part of
    the efficiency story.

    ``frame_cache_size`` bounds the content-hash frame cache (0 disables
    it).  The cache key is ``(content_key(frame bytes), template-set
    fingerprint, base)``: the fingerprint ties an entry to the exact
    template set it was computed under, so an analyzer restored with
    different templates (or a shared cache, later) can never replay a
    stale match set.  It is the analyzer's only cache: a second LRU of
    decoded instructions and lifted traces under the same key never
    answered (the frame cache always hit first) while holding the
    largest per-unique-frame state an attacker can inflate, so a hot
    reload re-lifts each distinct frame once instead.

    ``fastpath`` enables the template anchor prefilter
    (:mod:`repro.fastpath`): one vectorized multi-pattern pass over the
    frame decides which templates can possibly match; frames ruled out
    for every template skip disassemble/lift/match entirely, and anchor
    offsets prune match start positions for the rest.  Anchors are necessary
    conditions, so results are byte-identical with the flag off — the
    prefilter only skips work.  It disengages while a deadline is active
    (skipped frames would not charge deterministic deadline ticks, so
    deadline-trip alerts could diverge between on and off).  Off unless
    asked for here; the NIDS pipeline asks (``--no-fastpath`` disables).
    """

    def __init__(
        self,
        templates: list[Template] | None = None,
        engine: MatchEngine | None = None,
        min_instructions: int = 3,
        frame_cache_size: int = 4096,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        fastpath: bool = False,
    ) -> None:
        self.templates = templates if templates is not None else paper_templates()
        self.engine = engine or MatchEngine()
        self.min_instructions = min_instructions
        self.frame_cache = FrameCache(frame_cache_size) if frame_cache_size > 0 else None
        self.template_fingerprint = self._fingerprint()
        if fastpath:
            # Imported here, not at module top: repro.fastpath compiles
            # anchors *from* core templates, so a top-level import would
            # be circular whenever repro.fastpath is imported first.
            from ..fastpath import CompiledPrefilter
            self.prefilter = CompiledPrefilter(self.templates)
        else:
            self.prefilter = None
        # The analyzer is stages (c)-(e): each gets its own timer, plus
        # the "analyze" aggregate over a whole analyze_frame call.
        if registry is None:
            registry = MetricsRegistry()
        self.timer = StageTimer(ANALYZE_STAGE, registry, tracer)
        self.disassemble_timer = StageTimer("disassemble", registry, tracer)
        self.lift_timer = StageTimer("lift", registry, tracer)
        self.match_timer = StageTimer("match", registry, tracer)
        self._deadline_trips = registry.counter(
            "repro_deadline_exceeded_total")
        self._frames_skipped = registry.counter(
            "repro_fastpath_frames_skipped_total")
        self._anchor_hits = registry.counter(
            "repro_fastpath_anchor_hits_total")
        self._starts_pruned = registry.counter(
            "repro_fastpath_candidate_starts_pruned_total")
        self._budget_trips = registry.counter(
            "repro_match_budget_trips_total")
        self._plan_compile_seconds = registry.counter(
            "repro_match_plan_compile_seconds")
        # Compile the library's match plans eagerly at load time so the
        # first frame doesn't pay compilation inside its match span.
        compile_before = self.engine.plan_compile_seconds
        self.engine.compile_plans(self.templates)
        self._plan_compile_seconds.inc(
            self.engine.plan_compile_seconds - compile_before)

    def _fingerprint(self) -> bytes:
        """Stable digest of the template set + matcher configuration."""
        h = sha1()
        h.update(library_digest(self.templates))
        h.update(str(self.min_instructions).encode())
        return h.digest()

    def set_templates(self, templates: list[Template]) -> None:
        """Hot-swap the template library, invalidating derived caches
        atomically (no analysis runs between the swap and the clears —
        the analyzer is single-threaded per process).

        - the frame cache is cleared: its keys embed the template-set
          fingerprint, so old entries were unreachable anyway — this
          frees them and resets the keyspace in one step;
        - compiled match plans are dropped and recompiled: the plan
          cache is keyed by template identity and would otherwise pin
          the retired library's objects forever;
        - the anchor prefilter is rebuilt from the new library.

        Nothing else is memoized, so the first post-reload analysis of
        each distinct frame re-disassembles and re-lifts it once.
        """
        self.templates = templates
        self.template_fingerprint = self._fingerprint()
        if self.frame_cache is not None:
            self.frame_cache.clear()
        self.engine.clear_plans()
        compile_before = self.engine.plan_compile_seconds
        self.engine.compile_plans(templates)
        self._plan_compile_seconds.inc(
            self.engine.plan_compile_seconds - compile_before)
        if self.prefilter is not None:
            from ..fastpath import CompiledPrefilter
            self.prefilter = CompiledPrefilter(templates)

    def analyze_frame(self, data: bytes, base: int = 0,
                      deadline=None) -> AnalysisResult:
        """Disassemble a binary frame and match all templates against it.

        With the frame cache enabled, a byte-identical frame seen earlier
        (under the same template set and load address) replays the stored
        result without touching the disassembler or matcher.

        ``deadline`` is a :class:`repro.resilience.Deadline` shared across
        every frame of one payload; the disassemble/lift/match loop
        charges it cooperatively and the whole call raises
        :class:`~repro.errors.DeadlineExceeded` when the budget runs out.
        A frame aborted mid-analysis is never cached (the raise skips the
        ``put``), so a later run with a larger budget starts clean.
        """
        with self.timer.timed(nbytes=len(data)):
            start = time.perf_counter()
            key = None
            if self.frame_cache is not None:
                key = (content_key(data)
                       + self.template_fingerprint
                       + base.to_bytes(8, "little", signed=True))
                stored = self.frame_cache.get(key)
                if stored is not None:
                    # Replays cost (nearly) nothing, so they are free even
                    # for an exhausted deadline.
                    return replace(stored, cached=True,
                                   elapsed=time.perf_counter() - start)
            # Fast-path admission: one multi-pattern pass decides which
            # templates can possibly match.  Anchors are necessary
            # conditions, so a frame with no surviving template cannot
            # produce a match and skips the decode pipeline outright.
            # Disengaged under a deadline — a skipped frame would charge
            # no deterministic ticks, and deadline-trip alerts must stay
            # byte-identical with the prefilter off.  Skipped frames are
            # never cached, so cache entries always hold full-analysis
            # results identical with the prefilter off.
            scan = None
            if self.prefilter is not None and deadline is None:
                scan = self.prefilter.scan(data)
                self._anchor_hits.inc(scan.anchor_hits)
                if not scan.any_survivor:
                    self._frames_skipped.inc()
                    return AnalysisResult(frame_size=len(data),
                                          elapsed=time.perf_counter() - start)
            try:
                with self.disassemble_timer.timed(nbytes=len(data)):
                    instructions, consumed = disassemble_frame(
                        data, base,
                        tick=deadline.tick if deadline is not None else None)
                result = self._analyze(instructions, nbytes=consumed,
                                       deadline=deadline, scan=scan)
            except DeadlineExceeded:
                self._deadline_trips.inc()
                raise
            result.bytes_consumed = consumed
            result.frame_size = len(data)
            result.elapsed = time.perf_counter() - start
            if key is not None:
                self.frame_cache.put(key, result)
            return result

    def analyze_instructions(self, instructions: list[Instruction]) -> AnalysisResult:
        """Match against an already-decoded instruction list."""
        nbytes = sum(i.size for i in instructions)
        with self.timer.timed(nbytes=nbytes):
            start = time.perf_counter()
            result = self._analyze(instructions, nbytes=nbytes)
            result.bytes_consumed = nbytes
            result.frame_size = result.bytes_consumed
            result.elapsed = time.perf_counter() - start
            return result

    def _analyze(self, instructions: list[Instruction],
                 nbytes: int = 0, deadline=None,
                 scan=None) -> AnalysisResult:
        result = AnalysisResult(instruction_count=len(instructions))
        if len(instructions) < self.min_instructions:
            return result
        if deadline is not None:
            # Charge lift and match up front, proportionally to the work
            # they are about to do: one unit per instruction lifted, one
            # per instruction-template pair matched.  Deterministic —
            # the same payload trips at the same point on every machine.
            deadline.tick(len(instructions))
        with self.lift_timer.timed(nbytes=nbytes):
            trace = prepare_trace(instructions)
        if deadline is not None:
            deadline.tick(len(instructions) * max(1, len(self.templates)))
        with self.match_timer.timed(nbytes=nbytes):
            trips_before = self.engine.budget_trips
            compile_before = self.engine.plan_compile_seconds
            if scan is not None:
                pruned_before = self.engine.starts_pruned
                result.matches = self.engine.match_all(
                    self.templates, trace, prefilter=self.prefilter,
                    scan=scan)
                self._starts_pruned.inc(
                    self.engine.starts_pruned - pruned_before)
            else:
                result.matches = self.engine.match_all(self.templates, trace)
            self._budget_trips.inc(self.engine.budget_trips - trips_before)
            self._plan_compile_seconds.inc(
                self.engine.plan_compile_seconds - compile_before)
        return result
