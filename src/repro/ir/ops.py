"""Intermediate representation node types.

The IR is deliberately small: expression trees over register *families*
(``al``/``ax``/``eax`` all read family ``eax``), constants, and memory
references, plus a flat statement list.  Statements carry def/use sets at
family granularity which the matcher's clobber check consumes, and a back
pointer to the source :class:`~repro.x86.Instruction` so alerts can show the
original code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..x86.instruction import Instruction

__all__ = [
    "Expr", "Const", "Reg", "Load", "BinOp", "UnOp", "UnknownExpr",
    "MemRef", "Stmt", "Assign", "Store", "Exchange", "Push", "Pop",
    "Compare", "Branch", "Interrupt", "StringWrite", "Nop", "Unhandled",
    "mask_for", "JUMP_KINDS", "LOC_BIT", "loc_mask",
    "K_STORE", "K_LOAD", "K_ASSIGN", "K_JUMP", "K_CALL_IND", "K_PUSH",
    "K_INT", "K_A_BINOP", "K_A_UNOP", "K_A_REG", "K_POP", "K_BRANCH",
    "K_CALL", "K_OTHER", "K_ALL",
]

# -- statement kind bits -----------------------------------------------------
# What shape a statement is, decided where the shape is defined: every
# ``Stmt`` reports its bits as ``kinds`` and ``prepare_trace`` asks once
# per statement.  A template node's admission mask and its §4.3 need
# are spelled in these bits (:mod:`repro.core.template`).

K_STORE = 1        # Store
K_LOAD = 2         # Assign whose src is a Load
K_ASSIGN = 4       # any Assign
K_JUMP = 8         # Branch in the jmp/jcc/loop family with a known target
K_CALL_IND = 16    # Branch kind "call" with no known target
K_PUSH = 32        # Push
K_INT = 64         # Interrupt
K_A_BINOP = 128    # Assign whose src is a BinOp
K_A_UNOP = 256     # Assign whose src is a UnOp
K_A_REG = 512      # Assign whose src is a plain Reg
K_POP = 1024       # Pop (gap-tracker bookkeeping, not node admission)
K_BRANCH = 2048    # any Branch  } the two coarse kinds the §4.3
K_CALL = 4096      # any call    } pruning asks about
K_OTHER = 8192     # none of the above (Compare, Nop, Unhandled, ...)
K_ALL = 16383

#: Branch kinds that jump (as opposed to ``call`` / ``ret``).
JUMP_KINDS = ("jmp", "jcc", "loop", "loope", "loopne", "jecxz")

#: Every location a statement can define — the eight register families
#: and the two pseudo-locations — as one bit each.
LOC_BIT = {name: 1 << i for i, name in enumerate(
    ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "mem", "eflags"))}


def loc_mask(locations) -> int:
    """Bit mask of a ``defs()`` / ``uses()`` set."""
    mask = 0
    for name in locations:
        mask |= LOC_BIT[name]
    return mask


def mask_for(size: int) -> int:
    return (1 << (size * 8)) - 1


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for IR expressions."""

    #: kind bits an ``Assign`` gains from having this as its source
    as_source = 0

    def regs(self) -> set[str]:
        """Register families read by this expression."""
        return set()


@dataclass(frozen=True)
class Const(Expr):
    """A constant, normalized unsigned within its width."""

    value: int
    size: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & mask_for(self.size))

    def __str__(self) -> str:
        return f"{self.value:#x}"


@dataclass(frozen=True)
class Reg(Expr):
    """Value of a register; ``family`` is the 32-bit register name, ``size``
    the width actually read."""

    family: str
    size: int = 4
    as_source = K_A_REG

    def regs(self) -> set[str]:
        return {self.family}

    def __str__(self) -> str:
        return self.family if self.size == 4 else f"{self.family}:{self.size * 8}"


@dataclass(frozen=True)
class MemRef:
    """A memory reference ``[base + index*scale + disp]`` of a given width."""

    base: Expr | None = None
    index: Expr | None = None
    scale: int = 1
    disp: int = 0
    size: int = 4

    def regs(self) -> set[str]:
        out: set[str] = set()
        if self.base is not None:
            out |= self.base.regs()
        if self.index is not None:
            out |= self.index.regs()
        return out

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(str(self.base))
        if self.index is not None:
            parts.append(f"{self.index}*{self.scale}" if self.scale != 1 else str(self.index))
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}")
        return f"m{self.size * 8}[{' + '.join(parts)}]"


@dataclass(frozen=True)
class Load(Expr):
    """Read of a memory location."""

    mem: MemRef
    as_source = K_LOAD

    def regs(self) -> set[str]:
        return self.mem.regs()

    def __str__(self) -> str:
        return str(self.mem)


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation; ``op`` is one of add/sub/xor/or/and/mul/shl/shr/
    sar/rol/ror/adc/sbb."""

    op: str
    lhs: Expr
    rhs: Expr
    as_source = K_A_BINOP

    def regs(self) -> set[str]:
        return self.lhs.regs() | self.rhs.regs()

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operation: not/neg/bswap."""

    op: str
    operand: Expr
    as_source = K_A_UNOP

    def regs(self) -> set[str]:
        return self.operand.regs()

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class UnknownExpr(Expr):
    """A value the lifter cannot (or chooses not to) model."""

    why: str = ""

    def __str__(self) -> str:
        return "?"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base statement.  ``defs``/``uses`` are register families plus the
    pseudo-locations ``"mem"`` and ``"eflags"``."""

    ins: Instruction | None = field(default=None, kw_only=True)
    #: the ``K_*`` bits describing this statement's shape
    kinds = K_OTHER

    @property
    def address(self) -> int:
        return self.ins.address if self.ins is not None else -1

    def defs(self) -> set[str]:
        return set()

    def uses(self) -> set[str]:
        return set()


@dataclass
class Assign(Stmt):
    """``dst := src`` where dst is a register (family + width written).

    ``high`` marks legacy high-byte destinations (ah/ch/dh/bh), which write
    bits 8-15 of the family rather than bits 0-7."""

    dst: str
    size: int
    src: Expr
    high: bool = False

    @property
    def kinds(self) -> int:
        return K_ASSIGN | self.src.as_source

    def defs(self) -> set[str]:
        return {self.dst, "eflags"}  # conservatively: most ALU writes flags

    def uses(self) -> set[str]:
        return self.src.regs()

    def __str__(self) -> str:
        suffix = "" if self.size == 4 else f":{self.size * 8}"
        return f"{self.dst}{suffix} := {self.src}"


@dataclass
class Store(Stmt):
    """``mem := src``."""

    mem: MemRef
    src: Expr
    kinds = K_STORE

    def defs(self) -> set[str]:
        return {"mem", "eflags"}

    def uses(self) -> set[str]:
        return self.mem.regs() | self.src.regs()

    def __str__(self) -> str:
        return f"{self.mem} := {self.src}"


@dataclass
class Exchange(Stmt):
    """Swap two registers (xchg)."""

    a: str
    b: str
    size: int

    def defs(self) -> set[str]:
        return {self.a, self.b}

    def uses(self) -> set[str]:
        return {self.a, self.b}

    def __str__(self) -> str:
        return f"{self.a} <-> {self.b}"


@dataclass
class Push(Stmt):
    """Push a value; decrements esp by 4 and stores."""

    src: Expr
    kinds = K_PUSH

    def defs(self) -> set[str]:
        return {"esp", "mem"}

    def uses(self) -> set[str]:
        return self.src.regs() | {"esp"}

    def __str__(self) -> str:
        return f"push {self.src}"


@dataclass
class Pop(Stmt):
    """Pop into a register."""

    dst: str
    size: int = 4
    kinds = K_POP

    def defs(self) -> set[str]:
        return {self.dst, "esp"}

    def uses(self) -> set[str]:
        return {"esp", "mem"}

    def __str__(self) -> str:
        return f"pop {self.dst}"


@dataclass
class Compare(Stmt):
    """cmp/test — writes flags only."""

    lhs: Expr
    rhs: Expr
    kind: str = "cmp"

    def defs(self) -> set[str]:
        return {"eflags"}

    def uses(self) -> set[str]:
        return self.lhs.regs() | self.rhs.regs()

    def __str__(self) -> str:
        return f"{self.kind}({self.lhs}, {self.rhs})"


@dataclass
class Branch(Stmt):
    """Control transfer.

    ``kind``: ``jmp``, ``jcc``, ``loop``, ``loope``, ``loopne``, ``jecxz``,
    ``call``, ``ret``.  ``target`` is the absolute target address for direct
    branches, else ``None``.  ``loop`` also decrements ecx — its def set
    reflects that.
    """

    kind: str
    target: int | None = None
    mnemonic: str = ""

    @property
    def kinds(self) -> int:
        if self.kind == "call":
            return (K_BRANCH | K_CALL if self.target is not None
                    else K_BRANCH | K_CALL | K_CALL_IND)
        if self.kind in JUMP_KINDS and self.target is not None:
            return K_BRANCH | K_JUMP
        return K_BRANCH

    def defs(self) -> set[str]:
        if self.kind in ("loop", "loope", "loopne"):
            return {"ecx"}
        if self.kind == "call":
            return {"esp", "mem", "eax", "ecx", "edx"}  # caller-saved unknown
        return set()

    def uses(self) -> set[str]:
        if self.kind in ("loop", "loope", "loopne", "jecxz"):
            return {"ecx"}
        if self.kind == "jcc":
            return {"eflags"}
        return set()

    def __str__(self) -> str:
        dest = f" -> {self.target:#x}" if self.target is not None else " -> ?"
        return f"{self.kind}{dest}"


@dataclass
class Interrupt(Stmt):
    """Software interrupt (``int 0x80`` is the Linux syscall gate)."""

    vector: int
    kinds = K_INT

    def defs(self) -> set[str]:
        return {"eax"}  # syscall return value

    def uses(self) -> set[str]:
        return {"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp"}

    def __str__(self) -> str:
        return f"int {self.vector:#x}"


@dataclass
class StringWrite(Stmt):
    """stosb/stosd/movsb/movsd: store through edi and advance pointers.
    ``rep=True`` models the whole repeated block operation (count in ecx,
    which it consumes)."""

    op: str  # "stos" | "movs"
    size: int
    rep: bool = False

    def defs(self) -> set[str]:
        out = {"mem", "edi"}
        if self.op == "movs":
            out.add("esi")
        if self.rep:
            out.add("ecx")
        return out

    def uses(self) -> set[str]:
        out = {"edi", "eflags"}
        if self.op == "movs":
            out.add("esi")
        else:
            out.add("eax")
        if self.rep:
            out.add("ecx")
        return out

    def __str__(self) -> str:
        prefix = "rep " if self.rep else ""
        return f"{prefix}{self.op}{self.size * 8}"


@dataclass
class Nop(Stmt):
    """No semantic effect we track (nop, cld, flag fiddling...)."""

    flavor: str = "nop"

    def __str__(self) -> str:
        return f"nop<{self.flavor}>"


@dataclass
class Unhandled(Stmt):
    """An instruction outside the modelled subset; its conservative def set
    is 'everything', so it clobbers any in-flight match bindings."""

    mnemonic: str = ""
    clobbers: frozenset[str] = frozenset(LOC_BIT)

    def defs(self) -> set[str]:
        return set(self.clobbers)

    def __str__(self) -> str:
        return f"unhandled<{self.mnemonic}>"


def walk_exprs(expr: Expr) -> Iterator[Expr]:
    """Preorder traversal of an expression tree."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_exprs(expr.lhs)
        yield from walk_exprs(expr.rhs)
    elif isinstance(expr, UnOp):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, Load):
        if expr.mem.base is not None:
            yield from walk_exprs(expr.mem.base)
        if expr.mem.index is not None:
            yield from walk_exprs(expr.mem.index)
