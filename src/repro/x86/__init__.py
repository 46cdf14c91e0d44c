"""x86-32 toolchain: registers, operands, assembler, disassembler.

This package is the reproduction's substitute for the commercial IDA Pro
disassembler used in the paper, plus the assembler the attack engines need
to generate fresh polymorphic instances.
"""

from .._lazy import lazy_exports

__all__ = [
    "AssemblerError", "DisassemblerError", "X86Error",
    "Instruction", "format_listing",
    "Imm", "Mem", "Operand",
    "Register", "reg", "GPR32",
    "EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI",
    "Assembler", "assemble", "encode_instruction",
    "Disassembler", "disassemble", "disassemble_frame",
    "EmulationError", "Emulator", "Syscall",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "errors": ("AssemblerError", "DisassemblerError", "X86Error"),
    "instruction": ("Instruction", "format_listing"),
    "operands": ("Imm", "Mem", "Operand"),
    "registers": ("Register", "reg", "GPR32",
                  "EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI"),
    "asm": ("Assembler", "assemble", "encode_instruction"),
    "disasm": ("Disassembler", "disassemble", "disassemble_frame"),
    "emulator": ("EmulationError", "Emulator", "Syscall"),
})
