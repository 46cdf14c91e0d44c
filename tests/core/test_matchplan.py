"""Compiled match-plan tests: plan compilation units, edge cases run
against BOTH engines, and a seeded differential fuzz harness.

The compiled executor's contract is *exact* equivalence with the
recursive interpreter (``interp_oracle.py``, the differential oracle
kept beside this file) — same match results (template, bindings,
positions) AND same budget accounting (``budget_trips``).  Everything
here pins that contract; ``test_matcher.py`` additionally runs its
whole behavioural suite through both engines.
"""

import random

from interp_oracle import InterpretedMatchEngine

from repro.core.analyzer import disassemble_frame
from repro.core.library import (
    admmutate_alt_decoder,
    all_templates,
    codered_ii_vector,
    library_digest,
    xor_decrypt_loop,
)
from repro.core.matcher import MatchEngine, prepare_trace
from repro.core.matchplan import compile_plan
from repro.core.template import (
    LoopBack,
    Node,
    PointerStep,
    PushValue,
    StoreTo,
    Template,
)
from repro.ir.ops import K_ALL, K_PUSH, K_STORE, Nop
from repro.engines import AdmMutateEngine, get_shellcode, shellcode_names
from repro.x86.asm import assemble
from repro.x86.disasm import disassemble


def trace_of(source: str):
    return prepare_trace(disassemble(assemble(source)))


def both(template, trace, max_candidates: int = 200_000):
    """Run both engines; assert equivalent results and budget accounting;
    return the interpreted result."""
    comp = MatchEngine(max_candidates=max_candidates)
    interp = InterpretedMatchEngine(max_candidates=max_candidates)
    r_comp = comp.match(template, trace)
    r_interp = interp.match(template, trace)
    assert comp.budget_trips == interp.budget_trips
    if r_interp is None:
        assert r_comp is None
    else:
        assert r_comp is not None
        assert r_comp.template.name == r_interp.template.name
        assert r_comp.bindings == r_interp.bindings
        assert r_comp.positions == r_interp.positions
    return r_interp


class TestPlanCompilation:
    def test_unordered_plan_structure(self):
        plan = compile_plan(xor_decrypt_loop())
        assert not plan.ordered
        assert plan.n_nodes == 3
        # LoopBack matches last in unordered mode: it is not order-free.
        assert len(plan.loopbacks) == 1
        assert len(plan.order_free) == 2
        assert plan.union_admit != 0
        # MemRmw admits only store-kind statements.
        rmw_idx = plan.order_free[0]
        assert plan.admits[rmw_idx] & K_STORE

    def test_ordered_plan_fast_admit(self):
        plan = compile_plan(codered_ii_vector())
        assert plan.ordered
        # Node 0 (PushValue) has min repeat 2 >= 1, so the plan can
        # fast-fail any start statement that is not a push.
        assert plan.min_reps[0] == 2
        assert plan.fast_admit == plan.admits[0]
        assert plan.fast_admit & K_PUSH

    def test_optional_first_node_disables_fast_admit(self):
        t = Template(
            name="optional-head", ordered=True, max_gap=8,
            repeats={0: (0, 3)},
            nodes=[StoreTo(addr="PTR", src="R", size=None),
                   PointerStep(var="PTR"), LoopBack()],
        )
        plan = compile_plan(t)
        # min repeat 0: a match may start at node 1, so no statement-kind
        # fast-fail is sound at the start position.
        assert plan.fast_admit == -1

    def test_unknown_node_kind_admits_everything(self):
        class AnyNop(Node):
            def match(self, stmt, env, bindings, ctx):
                return bindings if isinstance(stmt, Nop) else None

            def describe(self):
                return "a nop"

        t = Template(name="opaque", ordered=True,
                     nodes=[PushValue(), AnyNop()], always_scan=True)
        plan = compile_plan(t)
        assert plan.admits[1] == K_ALL  # unknown => sound over-admission
        # ... of every statement, the shapeless ones included: the
        # executor must offer a nop to a node that says nothing.
        trace = trace_of("push 0x41414141\n nop")
        assert all(k & K_ALL for k in trace.kinds)
        assert both(t, trace).positions == [0, 1]

    def test_plan_holds_required_kinds_and_span(self):
        plan = compile_plan(codered_ii_vector())
        assert plan.required == codered_ii_vector().required_kinds() != 0
        assert plan.max_span == (16 + 1) * (8 + 1) + 1

    def test_engine_caches_plans_and_times_compilation(self):
        engine = MatchEngine()
        t = xor_decrypt_loop()
        p1 = engine.plan_for(t)
        seconds = engine.plan_compile_seconds
        assert seconds > 0.0
        p2 = engine.plan_for(t)
        assert p1 is p2
        assert engine.plan_compile_seconds == seconds  # cache hit: no time

    def test_plan_holds_template_ref(self):
        # The plan cache is keyed by id(template); the plan must keep the
        # template alive so the id can never be recycled while cached.
        engine = MatchEngine()
        plan = engine.plan_for(xor_decrypt_loop())
        assert plan.template is not None

    def test_library_digest_tracks_structure(self):
        base = library_digest([xor_decrypt_loop()])
        assert base == library_digest([xor_decrypt_loop()])
        widened = xor_decrypt_loop()
        widened.max_gap += 1
        assert library_digest([widened]) != base
        assert library_digest(all_templates()) != base


class TestEdgeCasesBothEngines:
    def test_zero_length_trace(self):
        trace = prepare_trace(disassemble(b""))
        assert len(trace) == 0
        for t in all_templates():
            assert both(t, trace) is None

    def test_single_instruction_trace(self):
        for src in ("inc eax", "push 0x41", "xor byte ptr [eax], 1"):
            trace = trace_of(src)
            assert len(trace) == 1
            for t in all_templates():
                assert both(t, trace) is None

    def test_unordered_repeat_upper_bound(self):
        # admmutate_alt_decoder allows 1..6 RegCompute repetitions; a
        # decoder whose compute chain fits must match, and both engines
        # must agree on the boundary behaviour either side of it.
        def decoder(chain: int) -> str:
            body = "\n".join("  xor bl, 0x5a" for _ in range(chain))
            return f"""
            decode:
              mov bl, byte ptr [eax]
{body}
              mov byte ptr [eax], bl
              inc eax
              loop decode
            """
        for chain in (1, 6, 7):
            result = both(admmutate_alt_decoder(), trace_of(decoder(chain)))
            if chain <= 6:
                assert result is not None, f"chain of {chain} missed"

    def test_unordered_repeat_lower_bound(self):
        t = admmutate_alt_decoder()
        t.repeats = {1: (2, 6)}  # now demands at least two computes
        assert both(t, trace_of("""
            decode:
              mov bl, byte ptr [eax]
              xor bl, 0x5a
              mov byte ptr [eax], bl
              inc eax
              loop decode
        """)) is None

    def test_gap_clobber_kills_live_binding(self):
        # PTR is live across the gap between the rmw and the step; a
        # plain overwrite of the bound register in the gap breaks def-use.
        assert both(xor_decrypt_loop(), trace_of("""
            decode:
              xor byte ptr [eax], 0x41
              mov eax, 0x1000
              inc eax
              loop decode
        """)) is None

    def test_push_pop_preserves_liveness_across_gap(self):
        # The same clobber bracketed by push/pop of the live register is
        # tolerated: the value is restored at matching stack depth.
        assert both(xor_decrypt_loop(), trace_of("""
            decode:
              xor byte ptr [eax], 0x41
              push eax
              mov eax, 0x1000
              pop eax
              inc eax
              loop decode
        """)) is not None

    def test_overlapping_gaps_two_live_families(self):
        # Both PTR (eax) and the split decoder's R (bl/ebx) are live
        # across interleaved gaps; saving one family must not excuse
        # clobbering the other.
        assert both(admmutate_alt_decoder(), trace_of("""
            decode:
              mov bl, byte ptr [eax]
              push eax
              mov ebx, 0x55         ; clobbers live R while PTR is saved
              pop eax
              xor bl, 0x5a
              mov byte ptr [eax], bl
              inc eax
              loop decode
        """)) is None
        assert both(admmutate_alt_decoder(), trace_of("""
            decode:
              mov bl, byte ptr [eax]
              push eax
              mov eax, 0x55
              pop eax
              xor bl, 0x5a
              mov byte ptr [eax], bl
              inc eax
              loop decode
        """)) is not None

    def test_unbalanced_pop_breaks_gap(self):
        # A pop with no matching push at that depth while a family is
        # live is a potential clobber: both engines must reject it.
        assert both(xor_decrypt_loop(), trace_of("""
            decode:
              xor byte ptr [eax], 0x41
              pop eax
              inc eax
              loop decode
        """)) is None


class TestBudgetParity:
    def assert_budget_parity(self, template, trace, caps=(200_000, 50, 7, 1)):
        for cap in caps:
            both(template, trace, max_candidates=cap)

    def test_budget_trips_identically_on_dense_trace(self):
        # A long run of pushes + indirect call is worst-case for the
        # ordered CRII template: many viable starts, deep repetition.
        src = "\n".join(f"push 0x7801{i:04x}" for i in range(40))
        trace = trace_of(src + "\ncall eax")
        self.assert_budget_parity(codered_ii_vector(), trace)

    def test_budget_trips_identically_on_decoder(self):
        shell = get_shellcode("classic-execve").assemble()
        eng = AdmMutateEngine(seed=99)
        data = eng.mutate(shell, instance=0).data
        instructions, _ = disassemble_frame(data)
        trace = prepare_trace(instructions)
        for t in all_templates():
            self.assert_budget_parity(t, trace)

    def test_match_all_counts_budget_trips(self):
        src = "\n".join(f"push 0x7801{i:04x}" for i in range(40))
        trace = trace_of(src + "\ncall eax")
        engine = MatchEngine(max_candidates=7)
        engine.match_all(all_templates(), trace)
        assert engine.budget_trips > 0


class TestDifferentialFuzz:
    """Seeded fuzz: random byte frames and mutated real shellcode, every
    template, several budget caps — compiled and interpreted must agree
    on results and budget accounting everywhere."""

    def traces(self):
        rng = random.Random(20260808)
        frames = [bytes(rng.randrange(256) for _ in range(rng.randrange(16, 160)))
                  for _ in range(12)]
        shell = get_shellcode("classic-execve").assemble()
        eng = AdmMutateEngine(seed=7)
        frames += [eng.mutate(shell, instance=i).data for i in range(3)]
        for name in shellcode_names()[:4]:
            frames.append(get_shellcode(name).assemble())
        out = []
        for data in frames:
            instructions, _ = disassemble_frame(data)
            if instructions:
                out.append(prepare_trace(instructions))
        return out

    def test_fuzz_differential(self):
        checks = 0
        for trace in self.traces():
            for template in all_templates():
                for cap in (200_000, 25, 3):
                    both(template, trace, max_candidates=cap)
                    checks += 1
        assert checks > 100
