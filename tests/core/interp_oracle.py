"""The recursive-interpreter matcher: differential oracle for the
compiled match plans.

This is the search :class:`repro.core.matcher.MatchEngine` shipped with
before templates were compiled into plans (:mod:`repro.core.matchplan`):
it walks the template's node objects at every candidate start,
re-deriving liveness, gap families and repeat bounds as it goes.  It
lives under ``tests/`` because its only job now is to be the reference
the compiled executors are held to — same matches (template, bindings,
positions) *and* same budget accounting (``budget_trips``), so an
analysis-cost attack trips both at the same statement.

:class:`InterpretedMatchEngine` keeps every shared stage of
``MatchEngine.match`` (feature pruning, vectorized start-window filter,
budget bookkeeping) and swaps only the per-start search, so a
disagreement can only come from the executors.  Inject it through
``SemanticAnalyzer(engine=...)``.
"""

from repro.core.matcher import MatchEngine, PreparedTrace
from repro.core.template import (
    Bindings, LoopBack, MatchContext, Template, TemplateMatch,
)
from repro.ir.ops import Pop as _PopStmt, Push as _PushStmt, Reg as _RegExpr
from repro.ir.ops import Stmt

__all__ = ["InterpretedMatchEngine"]


class InterpretedMatchEngine(MatchEngine):
    """:class:`MatchEngine` whose per-start search is the recursive
    interpreter instead of a compiled plan."""

    def _search(self, template: Template, trace: PreparedTrace,
                starts, budget) -> TemplateMatch | None:
        last_use = self._last_uses(template)
        # The oracle asks the statement objects, not the trace's masks.
        defs = [frozenset(s.defs()) for s in trace.stmts]
        cls = _OrderedState if template.ordered else _UnorderedState
        for start in starts:
            ctx = MatchContext(
                trace=trace.stmts, envs=trace.envs,
                pos_by_address=trace.pos_by_address, first_pos=-1,
            )
            result = cls(template, trace, ctx, budget, last_use,
                         defs).run(start)
            if result is not None:
                return result
            if budget[0] <= 0:
                break
        return None

    @staticmethod
    def _last_uses(template: Template) -> dict[str, int]:
        """Variable -> index of the last node that uses it (liveness)."""
        last: dict[str, int] = {}
        for i, node in enumerate(template.nodes):
            for var in node.variables():
                last[var] = i
        return last


class _SearchBase:
    def __init__(self, template, trace, ctx, budget, last_use, defs):
        self.t = template
        self.trace = trace
        self.ctx = ctx
        self.budget = budget
        self.last_use = last_use
        self.defs = defs

    def _live_families(self, bindings: Bindings, remaining: set[int]) -> set[str]:
        """Register families bound to variables still needed by unmatched
        nodes (those are the def-use edges junk must not break)."""
        if not remaining:
            return set()
        horizon = max(remaining)
        out: set[str] = set()
        for var, value in bindings.items():
            if value[0] in ("reg", "symconst") and self.last_use.get(var, -1) >= 0:
                # live if any remaining node may still use it
                if any(var in self.t.nodes[i].variables() for i in remaining):
                    out.add(str(value[1]))
                elif self.last_use[var] <= horizon and value[0] == "symconst":
                    out.add(str(value[1]))
        return out


class _GapTracker:
    """Def-use preservation across a gap, with push/pop save-restore.

    The plain clobber rule kills a candidate when junk redefines a bound
    register; but ``push R; <clobber R>; pop R`` preserves R's value
    through memory — a behaviour-preserving obfuscation the paper's
    def-use semantics permit.  The tracker forgives defs of a live
    register while it is parked on the stack at a balanced depth, and
    requires it restored before the next template node matches.
    """

    __slots__ = ("live", "depth", "saved")

    def __init__(self, live: set[str]) -> None:
        self.live = live
        self.depth = 0
        self.saved: dict[str, int] = {}

    def step(self, stmt: Stmt, defs: frozenset[str]) -> bool:
        """Advance over one unmatched gap statement; False = broken.
        ``defs`` is the statement's precomputed def set."""
        if isinstance(stmt, _PushStmt):
            src = stmt.src
            if (isinstance(src, _RegExpr) and src.family in self.live
                    and src.family not in self.saved):
                self.saved[src.family] = self.depth
            self.depth += 1
            return True
        if isinstance(stmt, _PopStmt):
            self.depth -= 1
            family = stmt.dst
            if self.saved.get(family) == self.depth:
                del self.saved[family]  # balanced restore
                return True
            if family in self.live and family not in self.saved:
                return False  # pop overwrites a live register with junk
            return True
        if not self.live:
            return True
        for family in defs & self.live:
            if family not in self.saved:
                return False
        return True

    def clean_at_match(self) -> bool:
        """A node may only match while no live register sits unsaved on
        the stack (the real code restores before using)."""
        if not self.saved:
            return True
        return not any(family in self.live for family in self.saved)


class _OrderedState(_SearchBase):
    def run(self, start: int) -> TemplateMatch | None:
        return self._rec(0, start, {}, [], 0)

    def _rec(
        self,
        node_idx: int,
        pos: int,
        bindings: Bindings,
        matched: list[int],
        repeat_count: int,
    ) -> TemplateMatch | None:
        t = self.t
        if node_idx >= len(t.nodes):
            return TemplateMatch(
                template=t, bindings=bindings, positions=list(matched),
                statements=[self.trace.stmts[i] for i in matched],
            )
        if self.budget[0] <= 0:
            return None
        node = t.nodes[node_idx]
        min_rep, max_rep = t.repeats.get(node_idx, (1, 1))
        remaining = set(range(node_idx, len(t.nodes)))
        live = self._live_families(bindings, remaining)
        # Option: node already satisfied its minimum — allowed to move on.
        if repeat_count >= min_rep:
            result = self._rec(node_idx + 1, pos, bindings, matched, 0)
            if result is not None:
                return result
        if repeat_count >= max_rep:
            return None
        # Before anything is matched, only the start position itself is a
        # candidate for the first node — every later position is visited as
        # its own start, so scanning ahead here would be quadratic.
        gap = t.max_gap if matched else 0
        limit = min(len(self.trace.stmts), pos + gap + 1)
        tracker = _GapTracker(live if matched else set())
        scan = pos
        while scan < limit:
            self.budget[0] -= 1
            if self.budget[0] <= 0:
                return None
            stmt = self.trace.stmts[scan]
            env = self.trace.envs[scan]
            new_bindings = (node.match(stmt, env, bindings, self.ctx)
                            if tracker.clean_at_match() else None)
            if new_bindings is not None:
                old_first = self.ctx.first_pos
                if not matched:
                    self.ctx.first_pos = scan
                matched.append(scan)
                result = self._rec(node_idx, scan + 1, new_bindings, matched,
                                   repeat_count + 1)
                if result is not None:
                    return result
                matched.pop()
                self.ctx.first_pos = old_first
            # This statement stays in the gap; check def-use preservation
            # (push/pop save-restore of a bound register is forgiven).
            if matched and not tracker.step(stmt, self.defs[scan]):
                return None
            scan += 1
        return None


class _UnorderedState(_SearchBase):
    """Any-order matching: nodes may match in any sequence; LoopBack last.

    Repeatable nodes stay *available* until their maximum count so that a
    long compute chain is consumed by its node rather than falling into the
    gap (where it would look like a clobber of the bound register).
    Liveness for the gap check covers only variables that *unsatisfied*
    nodes still need.
    """

    def run(self, start: int) -> TemplateMatch | None:
        self.order_free = [i for i, n in enumerate(self.t.nodes)
                           if not isinstance(n, LoopBack)]
        self.loopbacks = [i for i, n in enumerate(self.t.nodes)
                          if isinstance(n, LoopBack)]
        # Per-node repeat bounds, cached as flat lists (hot path).
        self.min_reps = [self.t.repeats.get(i, (1, 1))[0]
                         for i in range(len(self.t.nodes))]
        self.max_reps = [self.t.repeats.get(i, (1, 1))[1]
                         for i in range(len(self.t.nodes))]
        counts = {i: 0 for i in self.order_free}
        return self._rec(counts, start, {}, [])

    def _min_rep(self, idx: int) -> int:
        return self.min_reps[idx]

    def _max_rep(self, idx: int) -> int:
        return self.max_reps[idx]

    def _satisfied(self, counts: dict[int, int]) -> bool:
        min_reps = self.min_reps
        return all(c >= min_reps[i] for i, c in counts.items())

    def _rec(
        self,
        counts: dict[int, int],
        pos: int,
        bindings: Bindings,
        matched: list[int],
    ) -> TemplateMatch | None:
        t = self.t
        if self.budget[0] <= 0:
            return None
        if matched and self._satisfied(counts):
            result = self._finish(self.loopbacks, pos, bindings, matched)
            if result is not None:
                return result
        unsatisfied = {i for i, c in counts.items() if c < self._min_rep(i)}
        live = self._live_families(bindings, unsatisfied or set(self.loopbacks))
        gap = t.max_gap if matched else 0
        limit = min(len(self.trace.stmts), pos + gap + 1)
        tracker = _GapTracker(live if matched else set())
        scan = pos
        while scan < limit:
            self.budget[0] -= 1
            if self.budget[0] <= 0:
                return None
            stmt = self.trace.stmts[scan]
            env = self.trace.envs[scan]
            if tracker.clean_at_match():
                for idx in self.order_free:
                    if counts[idx] >= self.max_reps[idx]:
                        continue
                    node = t.nodes[idx]
                    new_bindings = node.match(stmt, env, bindings, self.ctx)
                    if new_bindings is None:
                        continue
                    old_first = self.ctx.first_pos
                    if not matched:
                        self.ctx.first_pos = scan
                    matched.append(scan)
                    counts[idx] += 1
                    result = self._rec(counts, scan + 1, new_bindings, matched)
                    if result is not None:
                        return result
                    counts[idx] -= 1
                    matched.pop()
                    self.ctx.first_pos = old_first
            if matched and not tracker.step(stmt, self.defs[scan]):
                return None
            scan += 1
        return None

    def _finish(self, loopbacks, pos, bindings, matched) -> TemplateMatch | None:
        if not loopbacks:
            return TemplateMatch(
                template=self.t, bindings=bindings, positions=list(matched),
                statements=[self.trace.stmts[i] for i in matched],
            )
        node = self.t.nodes[loopbacks[0]]
        limit = min(len(self.trace.stmts), pos + self.t.max_gap + 1)
        live = self._live_families(bindings, set(loopbacks))
        tracker = _GapTracker(live)
        for scan in range(pos, limit):
            self.budget[0] -= 1
            if self.budget[0] <= 0:
                return None
            new_bindings = node.match(
                self.trace.stmts[scan], self.trace.envs[scan], bindings, self.ctx
            )
            if new_bindings is not None:
                matched2 = matched + [scan]
                if len(loopbacks) == 1:
                    return TemplateMatch(
                        template=self.t, bindings=new_bindings,
                        positions=matched2,
                        statements=[self.trace.stmts[i] for i in matched2],
                    )
                result = self._finish(loopbacks[1:], scan + 1, new_bindings, matched2)
                if result is not None:
                    return result
            if not tracker.step(self.trace.stmts[scan], self.defs[scan]):
                return None
        return None
