"""The semantic template language.

A template (after Christodorescu et al. [5], as adopted by the paper)
describes a *behaviour*: an ordered sequence of abstract operations over
template variables — register variables (``PTR``, ``R``) and symbolic
constants (``KEY``).  A program satisfies a template iff it contains an
instruction sequence exhibiting that behaviour, regardless of the concrete
registers, constants, interleaved junk, or code order used.

Template nodes are small declarative classes with a ``match`` method that
attempts to extend a binding store with one IR statement.  The search over
statement sequences (gaps, backtracking, def-use preservation) lives in
:mod:`repro.core.matcher`.

Binding values are tagged tuples:

- ``("reg", family)`` — a register variable bound to a register family;
- ``("const", value)`` — a symbolic constant resolved to a concrete value
  (directly, or through constant propagation);
- ``("symconst", family)`` — a symbolic constant carried in a register
  whose value could not be resolved; consistency is still enforced by
  register identity, which preserves [5]'s def-use requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..digest import sha1
from ..ir.dataflow import ConstEnv
from ..ir.ops import (
    K_A_BINOP,
    K_A_REG,
    K_A_UNOP,
    K_ALL,
    K_BRANCH,
    K_CALL,
    K_CALL_IND,
    K_INT,
    K_JUMP,
    K_LOAD,
    K_PUSH,
    K_STORE,
    Assign,
    BinOp,
    Const,
    Expr,
    Interrupt,
    Load,
    MemRef,
    Push,
    Reg,
    Stmt,
    Store,
    UnOp,
)

__all__ = [
    "Bindings", "MatchContext", "Node", "Template", "TemplateMatch",
    "MemRmw", "LoadFrom", "RegCompute", "StoreTo", "PointerStep",
    "LoopBack", "Syscall", "ConstBytesWrite", "RegFromEsp", "PushValue",
    "IndirectCall", "ConstCapture", "bind",
]

Bindings = dict[str, tuple[str, int | str]]


@dataclass
class MatchContext:
    """Search-wide information nodes may consult."""

    trace: list[Stmt]
    envs: list[ConstEnv]
    pos_by_address: dict[int, int]
    first_pos: int = -1  # trace position of the first matched node


def bind(bindings: Bindings, var: str, value: tuple[str, int | str]) -> Bindings | None:
    """Extend a binding store; ``None`` on inconsistency."""
    existing = bindings.get(var)
    if existing is None:
        out = dict(bindings)
        out[var] = value
        return out
    return bindings if existing == value else None


def _resolve(expr: Expr, env: ConstEnv) -> tuple[str, int | str] | None:
    """Resolve an expression to a binding value (constant preferred)."""
    if isinstance(expr, Const):
        return ("const", expr.value)
    if isinstance(expr, Reg):
        value = env.get(expr.family, expr.size)
        if value is not None:
            return ("const", value)
        return ("symconst", expr.family)
    return None


def _reg_of(expr: Expr) -> str | None:
    return expr.family if isinstance(expr, Reg) else None


def _mem_base_reg(mem: MemRef) -> str | None:
    """Pointer register of a simple ``[reg]`` or ``[reg+disp]`` reference."""
    if mem.index is not None:
        return None
    return _reg_of(mem.base) if mem.base is not None else None


def _written_const(stmt: Stmt, env: ConstEnv) -> int | None:
    """The constant a ``Push`` or ``Store`` writes, when it resolves."""
    if not isinstance(stmt, (Push, Store)):
        return None
    resolved = _resolve(stmt.src, env)
    if resolved is None or resolved[0] != "const":
        return None
    return int(resolved[1])


def _width(size: int | None, unset: str = "") -> str:
    """An access width as ``describe()`` spells it (``unset`` for any)."""
    if size is None:
        return unset
    return {1: "byte", 2: "word", 4: "dword"}.get(size, f"{size}B")


class Node:
    """Base template node.

    Beside ``match``, a node class declares the two facts about it that
    the search hoists out of the loop, ``admits`` and ``needs`` — both in
    the statement kind bits of :mod:`repro.ir.ops`, both inherited (a
    subclass that widens ``match`` restates them).
    """

    #: kinds ``match`` can accept: the executors only call ``match`` on a
    #: statement whose kinds intersect it.  The base admits everything.
    admits = K_ALL
    #: the one kind a trace must contain for ``match`` to succeed anywhere
    #: (§4.3 pruning), or 0 where no single kind is necessary.
    needs = 0

    #: variables this node can bind (used for def-use liveness analysis)
    def variables(self) -> set[str]:
        return set()

    def match(
        self, stmt: Stmt, env: ConstEnv, bindings: Bindings, ctx: MatchContext
    ) -> Bindings | None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


@dataclass
class MemRmw(Node):
    """Read-modify-write of memory through a pointer register:
    ``mem[PTR] := mem[PTR] <op> KEY`` — the compact x86 form
    (``xor byte ptr [eax], 0x95`` and friends).
    """

    ops: frozenset[str] = frozenset({"xor"})
    addr: str = "PTR"
    key: str = "KEY"
    size: int | None = 1  # None = any access width
    admits = needs = K_STORE

    def variables(self) -> set[str]:
        return {self.addr, self.key}

    def match(self, stmt, env, bindings, ctx):
        if not isinstance(stmt, Store):
            return None
        if self.size is not None and stmt.mem.size != self.size:
            return None
        base = _mem_base_reg(stmt.mem)
        if base is None:
            return None
        src = stmt.src
        if isinstance(src, UnOp):
            if src.op not in self.ops:
                return None
            if not (isinstance(src.operand, Load) and src.operand.mem == stmt.mem):
                return None
            b = bind(bindings, self.addr, ("reg", base))
            if b is None:
                return None
            return bind(b, self.key, ("const", 0))  # unary: no key operand
        if not isinstance(src, BinOp) or src.op not in self.ops:
            return None
        # One side must reload the same location; the other is the key.
        if isinstance(src.lhs, Load) and src.lhs.mem == stmt.mem:
            key_expr = src.rhs
        elif isinstance(src.rhs, Load) and src.rhs.mem == stmt.mem:
            key_expr = src.lhs
        else:
            return None
        key_val = _resolve(key_expr, env)
        if key_val is None:
            return None
        b = bind(bindings, self.addr, ("reg", base))
        if b is None:
            return None
        return bind(b, self.key, key_val)

    def describe(self) -> str:
        ops = "/".join(sorted(self.ops))
        return (f"mem{_width(self.size, 'any')}[{self.addr}] := "
                f"mem[{self.addr}] {ops} {self.key}")


@dataclass
class LoadFrom(Node):
    """``R := mem[PTR]`` — the load half of a split decoder."""

    dst: str = "R"
    addr: str = "PTR"
    size: int | None = None
    admits = needs = K_LOAD

    def variables(self) -> set[str]:
        return {self.dst, self.addr}

    def match(self, stmt, env, bindings, ctx):
        if not isinstance(stmt, Assign) or not isinstance(stmt.src, Load):
            return None
        if self.size is not None and stmt.src.mem.size != self.size:
            return None
        base = _mem_base_reg(stmt.src.mem)
        if base is None:
            return None
        b = bind(bindings, self.addr, ("reg", base))
        if b is None:
            return None
        return bind(b, self.dst, ("reg", stmt.dst))

    def describe(self) -> str:
        return f"{self.dst} := mem{_width(self.size)}[{self.addr}]"


@dataclass
class RegCompute(Node):
    """``R := R <op> (...)`` — an arithmetic/logic transformation of the
    working register.  Matches one statement; set ``min_repeat``/
    ``max_repeat`` on the template sequence for chains."""

    reg: str = "R"
    ops: frozenset[str] = frozenset({"xor", "or", "and", "add", "sub", "not",
                                     "neg", "rol", "ror", "shl", "shr"})
    admits = K_A_BINOP | K_A_UNOP

    def variables(self) -> set[str]:
        return {self.reg}

    def match(self, stmt, env, bindings, ctx):
        if not isinstance(stmt, Assign):
            return None
        bound = bindings.get(self.reg)
        family = stmt.dst
        if bound is not None and bound != ("reg", family):
            return None
        src = stmt.src
        if isinstance(src, UnOp):
            if src.op not in self.ops:
                return None
            if _reg_of(src.operand) != family:
                return None
        elif isinstance(src, BinOp):
            if src.op not in self.ops:
                return None
            if _reg_of(src.lhs) != family and _reg_of(src.rhs) != family:
                return None
        else:
            return None
        return bind(bindings, self.reg, ("reg", family))

    def describe(self) -> str:
        return f"{self.reg} := {self.reg} <{'/'.join(sorted(self.ops))}> ..."


@dataclass
class StoreTo(Node):
    """``mem[PTR] := R`` — the store half of a split decoder."""

    addr: str = "PTR"
    src: str = "R"
    size: int | None = None
    admits = needs = K_STORE

    def variables(self) -> set[str]:
        return {self.addr, self.src}

    def match(self, stmt, env, bindings, ctx):
        if not isinstance(stmt, Store):
            return None
        if self.size is not None and stmt.mem.size != self.size:
            return None
        base = _mem_base_reg(stmt.mem)
        if base is None:
            return None
        src_reg = _reg_of(stmt.src)
        if src_reg is None:
            return None
        b = bind(bindings, self.addr, ("reg", base))
        if b is None:
            return None
        return bind(b, self.src, ("reg", src_reg))

    def describe(self) -> str:
        return f"mem{_width(self.size)}[{self.addr}] := {self.src}"


@dataclass
class PointerStep(Node):
    """``PTR := PTR ± k`` for a small stride k (1..8)."""

    var: str = "PTR"
    max_step: int = 8
    admits = K_A_BINOP

    def variables(self) -> set[str]:
        return {self.var}

    def match(self, stmt, env, bindings, ctx):
        if not isinstance(stmt, Assign) or not isinstance(stmt.src, BinOp):
            return None
        src = stmt.src
        if src.op not in ("add", "sub"):
            return None
        if _reg_of(src.lhs) != stmt.dst:
            return None
        if not isinstance(src.rhs, Const):
            step = env.get(_reg_of(src.rhs)) if _reg_of(src.rhs) else None
            if step is None:
                return None
        else:
            step = src.rhs.value
        if not 1 <= step <= self.max_step:
            return None
        return bind(bindings, self.var, ("reg", stmt.dst))

    def describe(self) -> str:
        return f"{self.var} := {self.var} ± k   (k <= {self.max_step})"


@dataclass
class LoopBack(Node):
    """A control transfer back to (at or before) the first matched node —
    the loop that makes a decoder a decoder.  In an unordered template
    it matches last."""

    admits = K_JUMP
    needs = K_BRANCH

    def match(self, stmt, env, bindings, ctx):
        if not stmt.kinds & K_JUMP:
            return None
        pos = ctx.pos_by_address.get(stmt.target)
        if pos is None or ctx.first_pos < 0:
            return None
        return bindings if pos <= ctx.first_pos else None

    def describe(self) -> str:
        return "branch back to loop head"


@dataclass
class Syscall(Node):
    """``int <vector>`` with required register constants, resolved via
    constant propagation (so ``xor eax,eax; mov al, 0xb`` qualifies)."""

    vector: int = 0x80
    regs: dict[str, int] = field(default_factory=dict)  # family -> value
    admits = needs = K_INT

    def match(self, stmt, env, bindings, ctx):
        if not isinstance(stmt, Interrupt) or stmt.vector != self.vector:
            return None
        for family, expected in self.regs.items():
            if env.get(family) != expected:
                return None
        return bindings

    def describe(self) -> str:
        conds = ", ".join(f"{r}={v:#x}" for r, v in sorted(self.regs.items()))
        return f"int {self.vector:#x}" + (f" with {conds}" if conds else "")


@dataclass
class ConstBytesWrite(Node):
    """A constant whose little-endian bytes contain ``contains`` is pushed
    or stored — how shellcode builds strings like ``/bin//sh`` in memory."""

    contains: bytes = b"/bin"
    admits = K_PUSH | K_STORE  # either will do, so neither is needed

    def match(self, stmt, env, bindings, ctx):
        value = _written_const(stmt, env)
        if value is None:
            return None
        raw = value.to_bytes(4, "little")
        return bindings if self.contains in raw else None

    def describe(self) -> str:
        return f"write constant containing {self.contains!r}"


@dataclass
class RegFromEsp(Node):
    """``R := esp (+ small offset)`` — taking the address of a
    stack-constructed string/argv block."""

    dst: str | None = None  # fixed family, or None to bind var "ARG"
    var: str = "ARG"
    admits = K_A_REG | K_A_BINOP

    def variables(self) -> set[str]:
        return set() if self.dst else {self.var}

    def match(self, stmt, env, bindings, ctx):
        if not isinstance(stmt, Assign):
            return None
        src = stmt.src
        ok = _reg_of(src) == "esp" or (
            isinstance(src, BinOp)
            and src.op in ("add", "sub")
            and _reg_of(src.lhs) == "esp"
            and isinstance(src.rhs, Const)
            and src.rhs.value <= 64
        )
        if not ok:
            return None
        if self.dst is not None:
            return bindings if stmt.dst == self.dst else None
        return bind(bindings, self.var, ("reg", stmt.dst))

    def describe(self) -> str:
        target = self.dst or self.var
        return f"{target} := esp (+k)"


@dataclass
class PushValue(Node):
    """A push of a constant satisfying a predicate — e.g. Code Red II's
    jump addresses into the 0x7801xxxx system-DLL range."""

    predicate: Callable[[int], bool] = lambda v: True
    label: str = "constant"
    admits = needs = K_PUSH

    def match(self, stmt, env, bindings, ctx):
        if not isinstance(stmt, Push):
            return None
        value = _written_const(stmt, env)
        return (bindings if value is not None and self.predicate(value)
                else None)

    def describe(self) -> str:
        return f"push {self.label}"


@dataclass
class ConstCapture(Node):
    """Bind a pushed/stored constant satisfying ``predicate`` to a
    variable — used to *extract* attack parameters (e.g. the sockaddr_in
    dword whose network-order port a bind shell will listen on)."""

    var: str = "VALUE"
    predicate: Callable[[int], bool] = lambda v: True
    label: str = "captured constant"
    admits = K_PUSH | K_STORE

    def variables(self) -> set[str]:
        return {self.var}

    def match(self, stmt, env, bindings, ctx):
        value = _written_const(stmt, env)
        if value is None or not self.predicate(value):
            return None
        return bind(bindings, self.var, ("const", value))

    def describe(self) -> str:
        return f"capture {self.label} as {self.var}"


@dataclass
class IndirectCall(Node):
    """``call r/m`` — transfer through a register or memory pointer."""

    admits = K_CALL_IND
    needs = K_CALL

    def match(self, stmt, env, bindings, ctx):
        return bindings if stmt.kinds & K_CALL_IND else None

    def describe(self) -> str:
        return "indirect call"


#: how ``Template.fingerprint()`` has always spelled the ``needs`` kinds
_FEATURE_NAMES = {K_STORE: "store", K_LOAD: "load", K_INT: "interrupt",
                  K_PUSH: "push", K_CALL: "call", K_BRANCH: "branch"}


@dataclass
class Template:
    """A named behaviour: node sequence plus matching policy.

    ``max_gap`` bounds how many unmatched statements may separate two
    consecutive matched nodes (junk tolerance).  ``ordered=False`` lets
    nodes match in any order (the loop-rotation case), except that a
    :class:`LoopBack` node always matches last.  ``repeats`` maps node index
    to (min, max) occurrence counts.

    :meth:`required_kinds` implements the paper's §4.3 pruning ("we prune
    the code to include only the instructions we are interested in"): the
    matcher skips any template one of whose kinds the trace — or the
    window a match could span — does not contain, the common case on
    benign frames.  It is derived from the nodes; ``required_features``
    spells it in words.

    ``always_scan`` opts the template out of the fast-path byte prefilter
    (:mod:`repro.fastpath.anchors`): frames are always fully analyzed
    against it.  Set it for templates whose nodes admit no sound
    necessary-condition byte anchors; the anchor compiler also applies it
    automatically when it cannot derive a single clause.
    """

    name: str
    nodes: Sequence[Node]
    description: str = ""
    category: str = "generic"
    severity: str = "high"
    max_gap: int = 32
    ordered: bool = True
    repeats: dict[int, tuple[int, int]] = field(default_factory=dict)
    always_scan: bool = False

    def required_kinds(self) -> int:
        """Statement kinds a matching trace must contain: the ``needs`` of
        every node that has to match at least once."""
        mask = 0
        for i, node in enumerate(self.nodes):
            if self.repeats.get(i, (1, 1))[0] >= 1:
                mask |= node.needs
        return mask

    @property
    def required_features(self) -> frozenset[str]:
        mask = self.required_kinds()
        return frozenset(name for bit, name in _FEATURE_NAMES.items()
                         if mask & bit)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for node in self.nodes:
            out |= node.variables()
        return out

    def describe(self) -> str:
        lines = [f"template {self.name}  ({self.category}, severity={self.severity})"]
        if self.description:
            lines.append(f"  # {self.description}")
        for i, node in enumerate(self.nodes):
            rep = self.repeats.get(i)
            suffix = f"  x{rep[0]}..{rep[1]}" if rep else ""
            lines.append(f"  {i}: {node.describe()}{suffix}")
        return "\n".join(lines)

    def fingerprint(self) -> bytes:
        """Stable structural digest of this template.

        Covers everything the matcher's behaviour depends on: the node
        sequence (via each node's :meth:`~Node.describe`), ordering
        policy, gap tolerance, repetition bounds, feature requirements,
        and the prefilter opt-out.  Two templates with equal fingerprints
        produce identical match plans and identical match results, so
        every derived cache (frame cache, compiled match plans) is keyed
        on — and invalidated by — this digest.
        """
        h = sha1()
        h.update(self.describe().encode())
        h.update(f"|ordered={self.ordered}|gap={self.max_gap}".encode())
        h.update(f"|repeats={sorted(self.repeats.items())}".encode())
        h.update(f"|features={sorted(self.required_features)}".encode())
        h.update(f"|always_scan={self.always_scan}".encode())
        return h.digest()


@dataclass
class TemplateMatch:
    """A successful satisfaction of a template by a code frame."""

    template: Template
    bindings: Bindings
    positions: list[int]  # trace positions of matched statements
    statements: list[Stmt]

    @property
    def span(self) -> tuple[int, int]:
        addrs = [s.address for s in self.statements if s.address >= 0]
        return (min(addrs), max(addrs)) if addrs else (-1, -1)

    def summary(self) -> str:
        vars_ = ", ".join(
            f"{k}={v[1]:#x}" if v[0] == "const" else f"{k}={v[1]}"
            for k, v in sorted(self.bindings.items())
        )
        lo, hi = self.span
        return (f"{self.template.name} @ [{lo:#x}..{hi:#x}]"
                + (f" with {vars_}" if vars_ else ""))
