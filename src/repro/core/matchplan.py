"""Compiled template match plans: compile once, execute per start position.

An interpreted search (the reference kept in
``tests/core/interp_oracle.py``) re-derives per candidate start
everything a template implies — variable liveness, gap families, repeat
bounds — by walking the node objects.  A :class:`TemplatePlan` hoists
all of that to compile time:

- node visit order with repeat bounds as flat tuples;
- per-node *variable sets* and, for ordered templates, suffix unions, so
  gap liveness is set-membership instead of re-walking ``variables()``;
- per-node *admission bitsets* over statement kinds, so the executor
  consults ``node.match`` only for statements whose IR shape could
  possibly satisfy the node;
- def-use gap checks as integer mask operations against the trace's
  ``def_masks`` (one fixed bit per location, :data:`repro.ir.ops.LOC_BIT`).

The plan executors (:class:`CompiledOrdered` / :class:`CompiledUnordered`)
mirror the interpreted search *exactly*: same visit order, same
backtracking, same budget decrements (one per scanned statement), same
binding-dict discipline.  Admission masks and mask trackers only skip
work the interpreted search provably wastes (a ``node.match`` call that
must return ``None``, a gap check over an empty live set), so the two
engines return identical matches and consume identical budget — the
property the compiled-vs-interpreted differential suite pins.

Nothing here classifies a statement or a node: the per-trace ``kinds``
and ``def_masks`` come from :func:`~repro.core.matcher.prepare_trace`
(each ``Stmt`` class states its own), and a node's admission mask and
§4.3 need are class attributes of the node (``Node.admits`` /
``Node.needs``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.ops import K_POP, K_PUSH, LOC_BIT, Reg
from .template import LoopBack, Template, TemplateMatch

__all__ = [
    "TemplatePlan",
    "compile_plan",
    "CompiledOrdered",
    "CompiledUnordered",
]

K_PUSHPOP = K_PUSH | K_POP


@dataclass(frozen=True)
class TemplatePlan:
    """A template compiled to flat execution form.

    Holding a strong reference to ``template`` pins its ``id`` for the
    engine's plan cache — a plan can never go stale while cached.
    """

    template: Template
    nodes: tuple
    ordered: bool
    max_gap: int
    n_nodes: int
    min_reps: tuple[int, ...]
    max_reps: tuple[int, ...]
    #: variables each node can bind (compile-time ``node.variables()``)
    node_vars: tuple[frozenset[str], ...]
    #: var -> index of the last node using it (liveness horizon)
    last_use: dict[str, int]
    #: ordered only: union of node_vars[i:] per node index
    suffix_vars: tuple[frozenset[str], ...]
    #: per-node statement admission masks
    admits: tuple[int, ...]
    #: start-position fast-fail mask (-1 = disabled): a start whose
    #: statement kind intersects no first-matchable node's admission mask
    #: fails after exactly one budget decrement, as interpreted would.
    fast_admit: int
    # unordered-template fields (empty for ordered templates)
    order_free: tuple[int, ...]
    required_free: tuple[int, ...]  # order_free nodes with min_rep >= 1
    loopbacks: tuple[int, ...]
    union_admit: int  # union of admits over order_free
    #: per remaining-loopback suffix: (vars union, horizon)
    lb_suffix: tuple[tuple[frozenset[str], int], ...]
    #: §4.3 pruning: kinds a trace (and a start window) must contain —
    #: the ``needs`` of the nodes whose minimum repeat is >= 1
    required: int
    #: upper bound on the trace distance a match covers from its first
    #: matched node (the start window's width)
    max_span: int


def compile_plan(template: Template) -> TemplatePlan:
    """Compile one template into a :class:`TemplatePlan`."""
    nodes = tuple(template.nodes)
    n = len(nodes)
    min_reps = tuple(template.repeats.get(i, (1, 1))[0] for i in range(n))
    max_reps = tuple(template.repeats.get(i, (1, 1))[1] for i in range(n))
    node_vars = tuple(frozenset(node.variables()) for node in nodes)
    last_use: dict[str, int] = {}
    for i, vars_ in enumerate(node_vars):
        for var in vars_:
            last_use[var] = i
    admits = tuple(node.admits for node in nodes)
    suffix_vars: list[frozenset[str]] = [frozenset()] * n
    acc: frozenset[str] = frozenset()
    for i in range(n - 1, -1, -1):
        acc = acc | node_vars[i]
        suffix_vars[i] = acc
    loopbacks = tuple(i for i in range(n) if isinstance(nodes[i], LoopBack))
    order_free = tuple(i for i in range(n) if i not in loopbacks)
    required_free = tuple(i for i in order_free if min_reps[i] >= 1)
    union_admit = 0
    for i in order_free:
        if max_reps[i] > 0:
            union_admit |= admits[i]
    if template.ordered:
        # The fast-fail path models the interpreted search's exact cost
        # (one budget unit) only when the first node is required; an
        # optional head would let deeper nodes try the start position.
        fast_admit = admits[0] if n and min_reps[0] >= 1 else -1
    else:
        fast_admit = union_admit
    lb_suffix: list[tuple[frozenset[str], int]] = []
    for i in range(len(loopbacks)):
        rest = loopbacks[i:]
        union: frozenset[str] = frozenset()
        for j in rest:
            union = union | node_vars[j]
        lb_suffix.append((union, max(rest)))
    return TemplatePlan(
        template=template, nodes=nodes, ordered=template.ordered,
        max_gap=template.max_gap, n_nodes=n, min_reps=min_reps,
        max_reps=max_reps, node_vars=node_vars, last_use=last_use,
        suffix_vars=tuple(suffix_vars), admits=admits,
        fast_admit=fast_admit, order_free=order_free,
        required_free=required_free, loopbacks=loopbacks,
        union_admit=union_admit, lb_suffix=tuple(lb_suffix),
        required=template.required_kinds(),
        max_span=(template.max_gap + 1) * sum(max_reps) + 1,
    )


class _MaskTracker:
    """Def-use gap tracker over location bit masks.

    Mask translation of the oracle's ``_GapTracker``: same push/pop
    save-restore forgiveness, integer masks instead of frozenset
    intersections.  Only instantiated for a non-empty live mask — with
    nothing live the original tracker can never fail or save.  The
    executors inline the check for every other statement
    (``def_mask & live & ~saved_mask``) and call :meth:`push_pop` for
    these two.
    """

    __slots__ = ("live", "depth", "saved", "saved_mask")

    def __init__(self, live_mask: int) -> None:
        self.live = live_mask
        self.depth = 0
        self.saved: dict[str, int] = {}
        self.saved_mask = 0

    def push_pop(self, stmt, kinds: int) -> bool:
        if kinds & K_PUSH:
            src = stmt.src
            if isinstance(src, Reg):
                family = src.family
                bit = LOC_BIT[family]
                if (bit & self.live) and family not in self.saved:
                    self.saved[family] = self.depth
                    self.saved_mask |= bit
            self.depth += 1
            return True
        self.depth -= 1
        family = stmt.dst
        if self.saved.get(family) == self.depth:
            del self.saved[family]
            self.saved_mask &= ~LOC_BIT[family]
            return True
        return family in self.saved or not (LOC_BIT[family] & self.live)


class _CompiledBase:
    __slots__ = ("p", "stmts", "envs", "defm", "kinds", "ctx", "budget", "n")

    def __init__(self, plan, trace, ctx, budget):
        self.p = plan
        self.stmts = trace.stmts
        self.envs = trace.envs
        self.defm = trace.def_masks
        self.kinds = trace.kinds
        self.ctx = ctx
        self.budget = budget
        self.n = len(trace.stmts)

    def _result(self, bindings, matched):
        stmts = self.stmts
        return TemplateMatch(
            template=self.p.template, bindings=bindings,
            positions=list(matched),
            statements=[stmts[i] for i in matched],
        )


class CompiledOrdered(_CompiledBase):
    """Plan executor for ordered templates."""

    __slots__ = ()

    def run(self, start: int):
        budget = self.budget
        if budget[0] <= 0:
            return None
        fa = self.p.fast_admit
        if fa >= 0 and not (self.kinds[start] & fa):
            budget[0] -= 1
            return None
        self.ctx.first_pos = -1
        return self._rec(0, start, {}, [], 0)

    def _live_mask(self, bindings, node_idx: int) -> int:
        # Ordered liveness: every remaining node is in the suffix and the
        # horizon is the last node, so a bound register family is live
        # iff its variable appears in the suffix — and a symbolic
        # constant is always live (its last use cannot exceed the
        # horizon).
        if not bindings:
            return 0
        suffix = self.p.suffix_vars[node_idx]
        out = 0
        for var, val in bindings.items():
            tag = val[0]
            if tag == "symconst" or (tag == "reg" and var in suffix):
                out |= LOC_BIT[val[1]]
        return out

    def _rec(self, node_idx, pos, bindings, matched, repeat_count):
        p = self.p
        if node_idx >= p.n_nodes:
            return self._result(bindings, matched)
        budget = self.budget
        if budget[0] <= 0:
            return None
        if repeat_count >= p.min_reps[node_idx]:
            result = self._rec(node_idx + 1, pos, bindings, matched, 0)
            if result is not None:
                return result
        if repeat_count >= p.max_reps[node_idx]:
            return None
        n = self.n
        if matched:
            limit = pos + p.max_gap + 1
            if limit > n:
                limit = n
            live = self._live_mask(bindings, node_idx)
            tracker = _MaskTracker(live) if live else None
        else:
            limit = pos + 1 if pos < n else n
            tracker = None
        node = p.nodes[node_idx]
        admit = p.admits[node_idx]
        stmts, envs, kinds, defm, ctx = (self.stmts, self.envs, self.kinds,
                                         self.defm, self.ctx)
        scan = pos
        while scan < limit:
            budget[0] -= 1
            if budget[0] <= 0:
                return None
            k = kinds[scan]
            if ((k & admit)
                    and (tracker is None
                         or not (tracker.saved_mask & tracker.live))):
                new_bindings = node.match(stmts[scan], envs[scan], bindings,
                                          ctx)
                if new_bindings is not None:
                    old_first = ctx.first_pos
                    if not matched:
                        ctx.first_pos = scan
                    matched.append(scan)
                    result = self._rec(node_idx, scan + 1, new_bindings,
                                       matched, repeat_count + 1)
                    if result is not None:
                        return result
                    matched.pop()
                    ctx.first_pos = old_first
            if tracker is not None and matched:
                if k & K_PUSHPOP:
                    if not tracker.push_pop(stmts[scan], k):
                        return None
                elif defm[scan] & tracker.live & ~tracker.saved_mask:
                    return None
            scan += 1
        return None


class CompiledUnordered(_CompiledBase):
    """Plan executor for unordered templates (LoopBack nodes match last)."""

    __slots__ = ("deficit", "_unsat")

    def __init__(self, plan, trace, ctx, budget):
        super().__init__(plan, trace, ctx, budget)
        self.deficit = 0
        self._unsat: list[int] = []

    def run(self, start: int):
        budget = self.budget
        if budget[0] <= 0:
            return None
        if not (self.kinds[start] & self.p.fast_admit):
            budget[0] -= 1
            return None
        self.ctx.first_pos = -1
        counts = [0] * self.p.n_nodes
        self.deficit = len(self.p.required_free)
        return self._rec(counts, start, {}, [])

    def _live_mask(self, bindings, counts) -> int:
        if not bindings:
            return 0
        p = self.p
        unsat = self._unsat
        unsat.clear()
        if self.deficit:
            for i in p.required_free:
                if counts[i] < p.min_reps[i]:
                    unsat.append(i)
        if unsat:
            horizon = unsat[-1]
            node_vars = p.node_vars
            last_use = p.last_use
            out = 0
            for var, val in bindings.items():
                tag = val[0]
                if tag != "reg" and tag != "symconst":
                    continue
                needed = False
                for i in unsat:
                    if var in node_vars[i]:
                        needed = True
                        break
                if needed or (tag == "symconst" and last_use[var] <= horizon):
                    out |= LOC_BIT[val[1]]
            return out
        if not p.loopbacks:
            return 0
        union, horizon = p.lb_suffix[0]
        return self._suffix_live(bindings, union, horizon)

    def _suffix_live(self, bindings, union, horizon) -> int:
        last_use = self.p.last_use
        out = 0
        for var, val in bindings.items():
            tag = val[0]
            if tag != "reg" and tag != "symconst":
                continue
            if var in union or (tag == "symconst"
                                and last_use[var] <= horizon):
                out |= LOC_BIT[val[1]]
        return out

    def _rec(self, counts, pos, bindings, matched):
        budget = self.budget
        if budget[0] <= 0:
            return None
        p = self.p
        if matched and not self.deficit:
            result = self._finish(0, pos, bindings, matched)
            if result is not None:
                return result
        n = self.n
        if matched:
            limit = pos + p.max_gap + 1
            if limit > n:
                limit = n
            live = self._live_mask(bindings, counts)
            tracker = _MaskTracker(live) if live else None
        else:
            limit = pos + 1 if pos < n else n
            tracker = None
        order_free = p.order_free
        max_reps, min_reps = p.max_reps, p.min_reps
        nodes, admits, union_admit = p.nodes, p.admits, p.union_admit
        stmts, envs, kinds, defm, ctx = (self.stmts, self.envs, self.kinds,
                                         self.defm, self.ctx)
        scan = pos
        while scan < limit:
            budget[0] -= 1
            if budget[0] <= 0:
                return None
            k = kinds[scan]
            if ((k & union_admit)
                    and (tracker is None
                         or not (tracker.saved_mask & tracker.live))):
                stmt = stmts[scan]
                env = envs[scan]
                for idx in order_free:
                    if counts[idx] >= max_reps[idx] or not (k & admits[idx]):
                        continue
                    new_bindings = nodes[idx].match(stmt, env, bindings, ctx)
                    if new_bindings is None:
                        continue
                    old_first = ctx.first_pos
                    if not matched:
                        ctx.first_pos = scan
                    matched.append(scan)
                    counts[idx] += 1
                    if counts[idx] == min_reps[idx]:
                        self.deficit -= 1
                    result = self._rec(counts, scan + 1, new_bindings,
                                       matched)
                    if result is not None:
                        return result
                    if counts[idx] == min_reps[idx]:
                        self.deficit += 1
                    counts[idx] -= 1
                    matched.pop()
                    ctx.first_pos = old_first
            if tracker is not None and matched:
                if k & K_PUSHPOP:
                    if not tracker.push_pop(stmts[scan], k):
                        return None
                elif defm[scan] & tracker.live & ~tracker.saved_mask:
                    return None
            scan += 1
        return None

    def _finish(self, lb_i, pos, bindings, matched):
        p = self.p
        loopbacks = p.loopbacks
        if lb_i >= len(loopbacks):
            return self._result(bindings, matched)
        node = p.nodes[loopbacks[lb_i]]
        admit = p.admits[loopbacks[lb_i]]
        n = self.n
        limit = pos + p.max_gap + 1
        if limit > n:
            limit = n
        union, horizon = p.lb_suffix[lb_i]
        live = self._suffix_live(bindings, union, horizon)
        tracker = _MaskTracker(live) if live else None
        budget = self.budget
        stmts, envs, kinds, defm, ctx = (self.stmts, self.envs, self.kinds,
                                         self.defm, self.ctx)
        last = len(loopbacks) - 1
        for scan in range(pos, limit):
            budget[0] -= 1
            if budget[0] <= 0:
                return None
            k = kinds[scan]
            if k & admit:
                new_bindings = node.match(stmts[scan], envs[scan], bindings,
                                          ctx)
                if new_bindings is not None:
                    matched2 = matched + [scan]
                    if lb_i == last:
                        return self._result(new_bindings, matched2)
                    result = self._finish(lb_i + 1, scan + 1, new_bindings,
                                          matched2)
                    if result is not None:
                        return result
            if tracker is not None:
                if k & K_PUSHPOP:
                    if not tracker.push_pop(stmts[scan], k):
                        return None
                elif defm[scan] & tracker.live & ~tracker.saved_mask:
                    return None
        return None
