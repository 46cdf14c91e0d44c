"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core import SemanticAnalyzer
from repro.engines import get_shellcode
from repro.x86 import assemble

# tests/core/interp_oracle.py (the interpreter the compiled matcher is
# held to) is imported by suites outside tests/core as well.
sys.path.insert(0, str(Path(__file__).parent / "core"))

# The three equivalent decryption routines of Figure 1.
FIG1A = """
decode:
    xor byte ptr [eax], 0x95
    inc eax
    loop decode
"""

FIG1B = """
decode:
    mov ebx, 31h
    add ebx, 64h
    xor byte ptr [eax], bl
    add eax, 1
    loop decode
"""

FIG1C = """
decode:
    mov ecx, 0
    inc ecx
    inc ecx
    jmp one
two:
    add eax, 1
    jmp three
one:
    mov ebx, 31h
    add ebx, 64h
    xor byte ptr [eax], bl
    jmp two
three:
    loop decode
"""


@pytest.fixture(scope="session")
def fig1_codes() -> dict[str, bytes]:
    return {name: assemble(src)
            for name, src in (("a", FIG1A), ("b", FIG1B), ("c", FIG1C))}


@pytest.fixture()
def analyzer() -> SemanticAnalyzer:
    return SemanticAnalyzer()


@pytest.fixture(scope="session")
def classic_shellcode() -> bytes:
    return get_shellcode("classic-execve").assemble()
