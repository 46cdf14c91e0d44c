"""Tests for the SemanticAnalyzer facade."""

from repro.core.analyzer import SemanticAnalyzer
from repro.core.library import xor_decrypt_loop
from repro.x86.asm import assemble
from repro.x86.disasm import disassemble


DECODER = """
decode:
  xor byte ptr [esi], 0x42
  inc esi
  loop decode
"""


class TestAnalyzeFrame:
    def test_detection(self):
        an = SemanticAnalyzer()
        result = an.analyze_frame(assemble(DECODER))
        assert result.detected
        assert result.matched_names() == ["xor_decrypt_loop"]

    def test_clean_frame(self):
        an = SemanticAnalyzer()
        result = an.analyze_frame(assemble("push ebp\nmov ebp, esp\nret"))
        assert not result.detected
        assert "clean" in result.summary()

    def test_min_instructions_skip(self):
        an = SemanticAnalyzer(min_instructions=10)
        result = an.analyze_frame(assemble(DECODER))
        assert not result.detected
        assert result.instruction_count == 3

    def test_frame_accounting(self):
        an = SemanticAnalyzer()
        code = assemble(DECODER)
        garbage = b"\x0f\x0b" * 4
        result = an.analyze_frame(code + garbage)
        assert result.frame_size == len(code) + len(garbage)
        assert result.bytes_consumed == len(code)

    def test_elapsed_recorded(self):
        an = SemanticAnalyzer()
        result = an.analyze_frame(assemble(DECODER))
        assert result.elapsed > 0
        assert an.timer.calls == 1
        assert an.timer.elapsed >= result.elapsed

    def test_empty_frame(self):
        an = SemanticAnalyzer()
        result = an.analyze_frame(b"")
        assert not result.detected
        assert result.instruction_count == 0

    def test_custom_template_set(self):
        an = SemanticAnalyzer(templates=[xor_decrypt_loop()])
        assert len(an.templates) == 1

    def test_analyze_instructions_direct(self):
        an = SemanticAnalyzer()
        instructions = disassemble(assemble(DECODER))
        result = an.analyze_instructions(instructions)
        assert result.detected

    def test_summary_includes_bindings(self):
        an = SemanticAnalyzer()
        result = an.analyze_frame(assemble(DECODER))
        assert "KEY=0x42" in result.summary()
