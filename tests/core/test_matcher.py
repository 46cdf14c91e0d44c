"""Tests for the template matcher: obfuscation tolerance and def-use."""

import pytest
from interp_oracle import InterpretedMatchEngine

from repro.core.library import (
    admmutate_alt_decoder,
    linux_shell_spawn,
    xor_decrypt_loop,
)
from repro.core.matcher import MatchEngine, prepare_trace
from repro.core.template import (
    LoopBack, MemRmw, PointerStep, Template,
)
from repro.x86.asm import assemble
from repro.x86.disasm import disassemble


def match(template, source: str):
    """Match with BOTH engines and assert they agree — every test in this
    file doubles as a compiled-vs-interpreted differential check."""
    trace = prepare_trace(disassemble(assemble(source)))
    compiled = MatchEngine().match(template, trace)
    interpreted = InterpretedMatchEngine().match(template, trace)
    if compiled is None or interpreted is None:
        assert compiled is None and interpreted is None
    else:
        assert compiled.bindings == interpreted.bindings
        assert compiled.positions == interpreted.positions
    return interpreted


class TestFigure1:
    """The paper's motivating example: one template, three syntaxes."""

    def test_all_three_variants(self, fig1_codes):
        template = xor_decrypt_loop()
        engine = MatchEngine()
        for name, code in fig1_codes.items():
            trace = prepare_trace(disassemble(code))
            result = engine.match(template, trace)
            assert result is not None, f"figure 1({name}) missed"
            assert result.bindings["KEY"] == ("const", 0x95), name
            assert result.bindings["PTR"] == ("reg", "eax"), name


class TestObfuscationTolerance:
    def test_junk_instructions_between_nodes(self):
        result = match(xor_decrypt_loop(), """
            decode:
              mov edx, 0x1234
              xor byte ptr [eax], 0x41
              add edx, 5
              nop
              cld
              inc eax
              test edx, edx
              loop decode
        """)
        assert result is not None

    def test_register_reassignment(self):
        for ptr in ("eax", "ebx", "esi", "edi"):
            result = match(xor_decrypt_loop(), f"""
                decode:
                  xor byte ptr [{ptr}], 0x41
                  inc {ptr}
                  loop decode
            """)
            assert result is not None
            assert result.bindings["PTR"] == ("reg", ptr)

    def test_equivalent_pointer_step(self):
        for step in ("inc esi", "add esi, 1"):
            result = match(xor_decrypt_loop(), f"""
                decode:
                  xor byte ptr [esi], 0x41
                  {step}
                  loop decode
            """)
            assert result is not None

    def test_loop_rotation(self):
        """Pointer step before the xor — unordered matching covers it."""
        result = match(xor_decrypt_loop(), """
            decode:
              inc esi
              xor byte ptr [esi], 0x41
              loop decode
        """)
        assert result is not None

    def test_dec_jnz_loop_form(self):
        result = match(xor_decrypt_loop(), """
            decode:
              xor byte ptr [esi], 0x41
              inc esi
              dec ecx
              jnz decode
        """)
        assert result is not None

    def test_key_through_stack(self):
        result = match(xor_decrypt_loop(), """
              push 0x77
              pop ebx
            decode:
              xor byte ptr [esi], bl
              inc esi
              loop decode
        """)
        assert result is not None
        assert result.bindings["KEY"] == ("const", 0x77)


class TestDefUsePreservation:
    def test_ptr_clobber_in_gap_kills_match(self):
        """Junk that redefines the bound pointer register between template
        nodes breaks the behaviour — must NOT match."""
        result = match(xor_decrypt_loop(), """
            decode:
              xor byte ptr [esi], 0x41
              mov esi, 0x12345678
              inc esi
              loop decode
        """)
        assert result is None

    def test_work_register_clobber_kills_alt_decoder(self):
        result = match(admmutate_alt_decoder(), """
            decode:
              mov al, byte ptr [esi]
              not al
              mov al, 0x99
              mov byte ptr [esi], al
              inc esi
              loop decode
        """)
        assert result is None

    def test_unrelated_register_writes_are_fine(self):
        result = match(xor_decrypt_loop(), """
            decode:
              xor byte ptr [esi], 0x41
              mov edi, 0x12345678
              inc esi
              loop decode
        """)
        assert result is not None


class TestNegativeCases:
    def test_no_loop_no_match(self):
        assert match(xor_decrypt_loop(), """
            xor byte ptr [esi], 0x41
            inc esi
            ret
        """) is None

    def test_forward_branch_is_not_a_loop(self):
        assert match(xor_decrypt_loop(), """
              xor byte ptr [esi], 0x41
              inc esi
              jne fwd
              nop
            fwd:
              ret
        """) is None

    def test_missing_pointer_step(self):
        assert match(xor_decrypt_loop(), """
            decode:
              xor byte ptr [esi], 0x41
              nop
              loop decode
        """) is None

    def test_different_pointers_no_match(self):
        """xor through esi but stepping edi — not a decoder."""
        assert match(xor_decrypt_loop(), """
            decode:
              xor byte ptr [esi], 0x41
              inc edi
              loop decode
        """) is None

    def test_function_like_code_clean(self):
        assert match(xor_decrypt_loop(), """
            push ebp
            mov ebp, esp
            mov eax, dword ptr [ebp + 8]
            add eax, 1
            mov esp, ebp
            pop ebp
            ret
        """) is None


class TestGapLimit:
    def _with_junk(self, n):
        junk = "\n".join(f"mov edx, {i}" for i in range(n))
        return f"""
            decode:
              xor byte ptr [esi], 0x41
              {junk}
              inc esi
              dec ecx
              jnz decode
        """

    def test_within_gap(self):
        t = xor_decrypt_loop()
        assert match(t, self._with_junk(t.max_gap - 2)) is not None

    def test_beyond_gap(self):
        t = xor_decrypt_loop()
        assert match(t, self._with_junk(t.max_gap + 10)) is None


class TestRepeats:
    def test_ordered_repeat_range(self):
        t = Template(
            name="two-xors", ordered=True, max_gap=4,
            repeats={0: (2, 3)},
            nodes=[MemRmw(size=1), PointerStep(), LoopBack()],
        )
        two = """
            decode:
              xor byte ptr [esi], 0x41
              xor byte ptr [esi], 0x41
              inc esi
              loop decode
        """
        one = """
            decode:
              xor byte ptr [esi], 0x41
              inc esi
              loop decode
        """
        assert match(t, two) is not None
        assert match(t, one) is None


class TestBudget:
    def test_budget_exhaustion_returns_none(self):
        engine = MatchEngine(max_candidates=3)
        trace = prepare_trace(disassemble(assemble("""
            decode:
              xor byte ptr [esi], 0x41
              inc esi
              loop decode
        """)))
        assert engine.match(xor_decrypt_loop(), trace) is None

    def test_match_all_collects_multiple(self, classic_shellcode):
        from repro.core.library import paper_templates
        code = assemble("""
            decode:
              xor byte ptr [esi], 0x41
              inc esi
              loop decode
        """) + classic_shellcode
        trace = prepare_trace(disassemble(code))
        names = {m.template.name
                 for m in MatchEngine().match_all(paper_templates(), trace)}
        assert "xor_decrypt_loop" in names
        assert "linux_shell_spawn" in names


class TestMatchResult:
    def test_span_and_summary(self):
        result = match(xor_decrypt_loop(), """
            decode:
              xor byte ptr [eax], 0x95
              inc eax
              loop decode
        """)
        lo, hi = result.span
        assert lo == 0 and hi >= 4
        assert "xor_decrypt_loop" in result.summary()
        assert "KEY=0x95" in result.summary()

    def test_positions_ascend(self):
        result = match(xor_decrypt_loop(), """
            decode:
              xor byte ptr [eax], 0x95
              inc eax
              loop decode
        """)
        assert result.positions == sorted(result.positions)

    def test_statements_linked_to_instructions(self):
        result = match(xor_decrypt_loop(), """
            decode:
              xor byte ptr [eax], 0x95
              inc eax
              loop decode
        """)
        mnemonics = {s.ins.mnemonic for s in result.statements}
        assert "xor" in mnemonics and "loop" in mnemonics


class TestOutOfOrderCode:
    def test_shell_spawn_with_jmp_threading(self, classic_shellcode):
        """Shell-spawn code cut into jmp-threaded chunks still matches."""
        source = """
              jmp c1
            c2:
              mov ebx, esp
              push eax
              push ebx
              mov ecx, esp
              jmp c3
            c1:
              xor eax, eax
              push eax
              push 0x68732f2f
              push 0x6e69622f
              jmp c2
            c3:
              xor edx, edx
              mov al, 11
              int 0x80
        """
        assert match(linux_shell_spawn(), source) is not None
