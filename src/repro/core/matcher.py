"""Template matching over linearized IR traces.

The matcher implements the satisfaction relation P |= T of [5] as a
backtracking search:

1. the frame's instructions are re-serialized in execution order
   (jmp-threading, :func:`repro.ir.cfg.linearize`) and lifted to IR;
2. constant propagation annotates every statement with the register
   constants holding *before* it;
3. for every start position, template nodes are matched against
   statements left to right (or in any order for ``ordered=False``
   templates), allowing up to ``max_gap`` junk statements between
   consecutive matched nodes;
4. def-use preservation: a gap statement that redefines a register bound
   to a live template variable kills the candidate — junk may be
   interleaved, but not junk that breaks the behaviour's dataflow.

The search is exponential in the worst case but template sizes are <= 8
nodes and gap windows are small; the §5.4 benign-traffic benchmark bounds
the practical cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..ir.cfg import build_cfg, linearize
from ..ir.dataflow import ConstEnv, propagate
from ..ir.lift import lift
from ..ir.ops import Stmt, loc_mask
from ..x86.instruction import Instruction
from .matchplan import (
    CompiledOrdered,
    CompiledUnordered,
    TemplatePlan,
    compile_plan,
)
from .template import MatchContext, Template, TemplateMatch

__all__ = ["MatchEngine", "prepare_trace", "PreparedTrace"]


@dataclass
class PreparedTrace:
    """Lifted + linearized + constant-annotated code, ready for matching.

    ``kinds`` and ``def_masks`` are each statement's shape bits and
    defined-location bits (:mod:`repro.ir.ops`), asked of the statement
    once, here; ``present`` is the union of ``kinds`` — everything the
    search, the gap trackers and the §4.3 pruning know about a
    statement's class.
    """

    instructions: list[Instruction]
    stmts: list[Stmt]
    envs: list[ConstEnv]
    pos_by_address: dict[int, int]
    kinds: list[int]
    def_masks: list[int]
    present: int

    def __post_init__(self) -> None:
        self._kinds_arr = None  # lazy ndarray of ``kinds``
        self._kind_cum: dict[int, object] = {}
        self._anchor_cum: dict[frozenset[int], object] = {}
        self._spans = None  # lazy (k1, k2) post-prefix opcode key arrays

    def __len__(self) -> int:
        return len(self.stmts)

    def kind_cum(self, bit: int):
        """Prefix counts of the statements of one kind (lazily built),
        used to reject start windows that cannot contain a required node
        kind."""
        cum = self._kind_cum.get(bit)
        if cum is None:
            import numpy as np

            if self._kinds_arr is None:
                self._kinds_arr = np.asarray(self.kinds, dtype=np.int64)
            cum = np.zeros(len(self.stmts) + 1, dtype=np.int64)
            np.cumsum((self._kinds_arr & bit) != 0, out=cum[1:])
            self._kind_cum[bit] = cum
        return cum

    def _opcode_keys(self):
        """Per-position post-prefix leading bytes of each statement's
        instruction, as two integer arrays (lazily built, shared by every
        anchor cum of this trace): ``k1[i]`` is the first byte after any
        legacy prefixes (-1 when the position has no raw instruction),
        ``k2[i]`` is ``(first << 8) | second`` (-1 when there is no
        second byte)."""
        import numpy as np

        keys = self._spans
        if keys is None:
            from ..x86.disasm import _OPSIZE_PREFIX, _PREFIXES

            strip = _PREFIXES | {_OPSIZE_PREFIX}
            n = len(self.stmts)
            k1 = np.full(n, -1, dtype=np.int32)
            k2 = np.full(n, -1, dtype=np.int32)
            for i, stmt in enumerate(self.stmts):
                ins = stmt.ins
                if ins is None or not ins.raw:
                    continue
                raw = ins.raw
                j = 0
                while j < len(raw) - 1 and raw[j] in strip:
                    j += 1
                k1[i] = raw[j]
                if j + 1 < len(raw):
                    k2[i] = (raw[j] << 8) | raw[j + 1]
            self._spans = keys = (k1, k2)
        return keys

    def anchor_cum(self, key: frozenset[int], ones, twos, has_long):
        """Prefix counts of trace positions whose instruction could
        satisfy one prefilter clause.

        ``ones``/``twos`` are the clause's anchor patterns as sorted
        integer keys (``CompiledPrefilter.clause_hits``).  Anchor
        patterns are the post-prefix leading bytes of every instruction
        encoding able to lift to the clause's node, so a position whose
        instruction starts with none of them provably cannot satisfy it —
        which makes the cum a sound start-window filter, exactly like
        :meth:`kind_cum`.  A clause carrying patterns too long for the
        key form (``has_long``) counts every position: no pruning, still
        sound.  Cached by clause identity (``key``) since templates share
        clauses.
        """
        import numpy as np

        cum = self._anchor_cum.get(key)
        if cum is None:
            n = len(self.stmts)
            if has_long:
                hit = np.ones(n, dtype=bool)
            else:
                k1, k2 = self._opcode_keys()
                # kind="table": the keys span at most 16 bits, and the
                # default sort path goes through np.unique, whose first
                # call imports numpy.ma (12 ms, 2.6 MB resident).
                hit = np.isin(k1, ones, kind="table")
                if len(twos):
                    hit |= np.isin(k2, twos, kind="table")
            cum = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(hit, out=cum[1:])
            self._anchor_cum[key] = cum
        return cum


def prepare_trace(instructions: list[Instruction]) -> PreparedTrace:
    """Linearize, lift and annotate a decoded frame."""
    cfg = build_cfg(instructions)
    ordered = linearize(cfg)
    stmts = lift(ordered)
    envs = propagate(stmts)
    pos_by_address: dict[int, int] = {}
    kinds: list[int] = []
    def_masks: list[int] = []
    present = 0
    for i, stmt in enumerate(stmts):
        addr = stmt.address
        if addr >= 0 and addr not in pos_by_address:
            pos_by_address[addr] = i
        k = stmt.kinds
        kinds.append(k)
        present |= k
        def_masks.append(loc_mask(stmt.defs()))
    return PreparedTrace(
        instructions=ordered, stmts=stmts, envs=envs,
        pos_by_address=pos_by_address, kinds=kinds, def_masks=def_masks,
        present=present,
    )


class MatchEngine:
    """Matches one or more templates against prepared traces."""

    def __init__(self, max_candidates: int = 200_000) -> None:
        #: backtracking budget per (template, frame) pair; prevents
        #: adversarial frames from stalling the sensor.
        self.max_candidates = max_candidates
        #: candidate start positions rejected via fast-path anchor
        #: information (templates ruled out count their whole trace).
        self.starts_pruned = 0
        #: (template, frame) searches cut short by ``max_candidates``.
        self.budget_trips = 0
        #: cumulative seconds spent compiling match plans.
        self.plan_compile_seconds = 0.0
        # Plan cache keyed by template identity: each cached plan holds a
        # strong reference to its template, so an id() can never be
        # recycled while its entry lives.
        self._plans: dict[int, TemplatePlan] = {}

    def plan_for(self, template: Template) -> TemplatePlan:
        """The compiled :class:`TemplatePlan` for ``template`` (cached)."""
        plan = self._plans.get(id(template))
        if plan is None:
            t0 = time.perf_counter()
            plan = compile_plan(template)
            self.plan_compile_seconds += time.perf_counter() - t0
            self._plans[id(template)] = plan
        return plan

    def compile_plans(self, templates) -> None:
        """Eagerly compile plans for a template library (load time)."""
        for template in templates:
            self.plan_for(template)

    def clear_plans(self) -> None:
        """Drop every compiled plan (template-library hot reload): the
        cache keys are template identities, so entries for a retired
        library would pin the old template objects forever."""
        self._plans.clear()

    # -- public API --------------------------------------------------------

    def match(self, template: Template, trace: PreparedTrace,
              clause_hits=None) -> TemplateMatch | None:
        """First match of ``template`` in ``trace``, or ``None``.

        ``clause_hits`` is optional fast-path anchor information for this
        template (``CompiledPrefilter.clause_hits``): per necessary-
        condition clause, the post-prefix opcode keys of every producing
        instruction encoding.  Start windows containing no instruction
        able to produce some clause are rejected the same way the kind
        cums reject them — a pure pruning that cannot change the outcome.
        """
        n = len(trace)
        if n == 0 or not template.nodes:
            return None
        plan = self.plan_for(template)
        required = plan.required
        if required & ~trace.present:
            return None  # §4.3 pruning: a required instruction kind is absent
        budget = [self.max_candidates]

        # Window filter: a match starting at `start` spans at most
        # `span` statements, so every required node kind must occur inside
        # [start, start+span) — rejecting sled/junk starts in O(#kinds).
        span = plan.max_span
        cums = []
        while required:
            bit = required & -required
            cums.append(trace.kind_cum(bit))
            required ^= bit
        anchor_cums = ([trace.anchor_cum(ids, ones, twos, has_long)
                        for ids, ones, twos, has_long in clause_hits]
                       if clause_hits else [])

        # All start windows are filtered in one vectorized pass instead of
        # a per-start Python loop: only the surviving candidates reach the
        # backtracking search.  The two filter stages are kept separate so
        # ``starts_pruned`` counts exactly the windows the anchors reject
        # on top of the kind rejection.
        import numpy as np

        starts_arr = np.arange(n, dtype=np.int64)
        ends_arr = np.minimum(n, starts_arr + span)
        ok = np.ones(n, dtype=bool)
        for cum in cums:
            ok &= cum[ends_arr] > cum[starts_arr]
        if anchor_cums:
            ok_anchored = ok.copy()
            for cum in anchor_cums:
                ok_anchored &= cum[ends_arr] > cum[starts_arr]
            self.starts_pruned += int(ok.sum() - ok_anchored.sum())
            ok = ok_anchored

        starts = np.flatnonzero(ok).tolist()
        result = self._search(template, trace, starts, budget)
        if budget[0] <= 0:
            self.budget_trips += 1
        return result

    def _search(self, template: Template, trace: PreparedTrace,
                starts, budget) -> TemplateMatch | None:
        """First match over the surviving ``starts``, charging the
        shared ``budget``: the template's compiled plan
        (:mod:`repro.core.matchplan`) run at each start."""
        plan = self.plan_for(template)
        ctx = MatchContext(
            trace=trace.stmts, envs=trace.envs,
            pos_by_address=trace.pos_by_address, first_pos=-1,
        )
        cls = CompiledOrdered if plan.ordered else CompiledUnordered
        executor = cls(plan, trace, ctx, budget)
        for start in starts:
            result = executor.run(start)
            if result is not None:
                return result
            if budget[0] <= 0:
                break
        return None

    def match_all(self, templates: list[Template], trace: PreparedTrace,
                  prefilter=None, scan=None) -> list[TemplateMatch]:
        """Match every template; returns all hits (one match per template).

        With a fast-path ``prefilter`` (:class:`repro.fastpath.
        CompiledPrefilter`) and its ``scan`` of the frame, templates whose
        necessary-condition anchors are absent are skipped outright and
        the surviving templates' anchor offsets prune start positions.
        """
        out = []
        for template in templates:
            clause_hits = None
            if prefilter is not None and scan is not None:
                if not scan.survives(template.name):
                    self.starts_pruned += len(trace)
                    continue
                clause_hits = prefilter.clause_hits(template.name, scan)
            m = self.match(template, trace, clause_hits=clause_hits)
            if m is not None:
                out.append(m)
        return out
