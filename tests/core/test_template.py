"""Unit tests for template nodes and the binding store."""

import pytest

from repro.core.template import (
    ConstBytesWrite,
    IndirectCall,
    LoadFrom,
    LoopBack,
    MatchContext,
    MemRmw,
    PointerStep,
    PushValue,
    RegCompute,
    RegFromEsp,
    StoreTo,
    Syscall,
    Template,
    bind,
)
from repro.ir.dataflow import ConstEnv, propagate
from repro.ir.lift import lift
from repro.x86.asm import assemble
from repro.x86.disasm import disassemble


def stmt_env(source: str, index: int = 0):
    stmts = lift(disassemble(assemble(source)))
    envs = propagate(stmts)
    return stmts[index], envs[index]


def ctx_for(source: str) -> MatchContext:
    stmts = lift(disassemble(assemble(source)))
    return MatchContext(trace=stmts, envs=propagate(stmts),
                        pos_by_address={s.address: i for i, s in enumerate(stmts)})


EMPTY_CTX = MatchContext(trace=[], envs=[], pos_by_address={})


class TestBind:
    def test_new_binding(self):
        assert bind({}, "X", ("reg", "eax")) == {"X": ("reg", "eax")}

    def test_consistent_rebind(self):
        b = {"X": ("reg", "eax")}
        assert bind(b, "X", ("reg", "eax")) is b

    def test_conflict(self):
        assert bind({"X": ("reg", "eax")}, "X", ("reg", "ebx")) is None

    def test_original_not_mutated(self):
        b = {}
        bind(b, "X", ("const", 1))
        assert b == {}


class TestMemRmw:
    def test_direct_immediate_key(self):
        stmt, env = stmt_env("xor byte ptr [eax], 0x95")
        node = MemRmw(ops=frozenset({"xor"}), size=1)
        b = node.match(stmt, env, {}, EMPTY_CTX)
        assert b == {"PTR": ("reg", "eax"), "KEY": ("const", 0x95)}

    def test_register_key_resolved(self):
        stmt, env = stmt_env("mov ebx, 0x31\nadd ebx, 0x64\nxor byte ptr [eax], bl",
                             index=2)
        b = MemRmw().match(stmt, env, {}, EMPTY_CTX)
        assert b["KEY"] == ("const", 0x95)

    def test_register_key_unresolved_binds_symbolically(self):
        stmt, env = stmt_env("xor byte ptr [eax], bl")
        b = MemRmw().match(stmt, env, {}, EMPTY_CTX)
        assert b["KEY"] == ("symconst", "ebx")

    def test_wrong_op_rejected(self):
        stmt, env = stmt_env("add byte ptr [eax], 1")
        assert MemRmw(ops=frozenset({"xor"})).match(stmt, env, {}, EMPTY_CTX) is None

    def test_size_mismatch_rejected(self):
        stmt, env = stmt_env("xor dword ptr [eax], 0x95")
        assert MemRmw(size=1).match(stmt, env, {}, EMPTY_CTX) is None

    def test_size_any(self):
        stmt, env = stmt_env("xor dword ptr [eax], 0x95")
        assert MemRmw(size=None).match(stmt, env, {}, EMPTY_CTX) is not None

    def test_plain_store_rejected(self):
        stmt, env = stmt_env("mov byte ptr [eax], 0x95")
        assert MemRmw().match(stmt, env, {}, EMPTY_CTX) is None

    def test_ptr_binding_consistency(self):
        stmt, env = stmt_env("xor byte ptr [esi], 0x41")
        prior = {"PTR": ("reg", "edi")}
        assert MemRmw().match(stmt, env, prior, EMPTY_CTX) is None

    def test_not_unary_form(self):
        stmt, env = stmt_env("not byte ptr [esi]")
        b = MemRmw(ops=frozenset({"not"}), size=1).match(stmt, env, {}, EMPTY_CTX)
        assert b is not None and b["PTR"] == ("reg", "esi")


class TestLoadStoreCompute:
    def test_load_from(self):
        stmt, env = stmt_env("mov al, byte ptr [esi]")
        b = LoadFrom().match(stmt, env, {}, EMPTY_CTX)
        assert b == {"PTR": ("reg", "esi"), "R": ("reg", "eax")}

    def test_load_requires_load(self):
        stmt, env = stmt_env("mov al, 5")
        assert LoadFrom().match(stmt, env, {}, EMPTY_CTX) is None

    def test_store_to(self):
        stmt, env = stmt_env("mov byte ptr [esi], al")
        b = StoreTo().match(stmt, env, {}, EMPTY_CTX)
        assert b == {"PTR": ("reg", "esi"), "R": ("reg", "eax")}

    def test_store_requires_register_source(self):
        stmt, env = stmt_env("mov byte ptr [esi], 7")
        assert StoreTo().match(stmt, env, {}, EMPTY_CTX) is None

    def test_reg_compute_binop(self):
        stmt, env = stmt_env("xor al, 0x42")
        b = RegCompute().match(stmt, env, {}, EMPTY_CTX)
        assert b == {"R": ("reg", "eax")}

    def test_reg_compute_unop(self):
        stmt, env = stmt_env("not dl")
        assert RegCompute().match(stmt, env, {}, EMPTY_CTX) == {"R": ("reg", "edx")}

    def test_reg_compute_respects_binding(self):
        stmt, env = stmt_env("not dl")
        assert RegCompute().match(stmt, env, {"R": ("reg", "eax")}, EMPTY_CTX) is None

    def test_reg_compute_rejects_plain_mov(self):
        stmt, env = stmt_env("mov dl, 5")
        assert RegCompute().match(stmt, env, {}, EMPTY_CTX) is None


class TestPointerStep:
    @pytest.mark.parametrize("src", ["inc esi", "add esi, 1", "add esi, 4",
                                     "sub esi, 1"])
    def test_accepts(self, src):
        stmt, env = stmt_env(src)
        assert PointerStep().match(stmt, env, {}, EMPTY_CTX) == {"PTR": ("reg", "esi")}

    def test_rejects_large_stride(self):
        stmt, env = stmt_env("add esi, 0x1000")
        assert PointerStep().match(stmt, env, {}, EMPTY_CTX) is None

    def test_register_stride_resolved(self):
        stmt, env = stmt_env("mov ebx, 1\nadd esi, ebx", index=1)
        assert PointerStep().match(stmt, env, {}, EMPTY_CTX) is not None


class TestLoopBack:
    def test_backward_branch_matches(self):
        ctx = ctx_for("top:\n  inc eax\n  loop top")
        ctx.first_pos = 0
        branch = ctx.trace[-1]
        assert LoopBack().match(branch, ctx.envs[-1], {}, ctx) == {}

    def test_forward_branch_rejected(self):
        ctx = ctx_for("jmp fwd\nnop\nfwd:\n  ret")
        ctx.first_pos = 0
        branch = ctx.trace[0]
        assert LoopBack().match(branch, ctx.envs[0], {}, ctx) is None

    def test_requires_first_pos(self):
        ctx = ctx_for("top:\n  inc eax\n  loop top")
        assert ctx.first_pos == -1
        assert LoopBack().match(ctx.trace[-1], ctx.envs[-1], {}, ctx) is None

    def test_non_branch_rejected(self):
        ctx = ctx_for("inc eax")
        ctx.first_pos = 0
        assert LoopBack().match(ctx.trace[0], ctx.envs[0], {}, ctx) is None


class TestSyscall:
    def test_vector_and_regs(self):
        stmt, env = stmt_env("xor eax, eax\nmov al, 11\nint 0x80", index=2)
        node = Syscall(vector=0x80, regs={"eax": 11})
        assert node.match(stmt, env, {}, EMPTY_CTX) == {}

    def test_wrong_vector(self):
        stmt, env = stmt_env("int 0x21")
        assert Syscall(vector=0x80).match(stmt, env, {}, EMPTY_CTX) is None

    def test_unresolved_register_rejected(self):
        stmt, env = stmt_env("int 0x80")
        assert Syscall(regs={"eax": 11}).match(stmt, env, {}, EMPTY_CTX) is None

    def test_wrong_value_rejected(self):
        stmt, env = stmt_env("mov eax, 12\nint 0x80", index=1)
        assert Syscall(regs={"eax": 11}).match(stmt, env, {}, EMPTY_CTX) is None


class TestConstBytesWrite:
    def test_push_bin(self):
        stmt, env = stmt_env("push 0x6e69622f")
        assert ConstBytesWrite(contains=b"/bin").match(stmt, env, {}, EMPTY_CTX) == {}

    def test_store_bin(self):
        stmt, env = stmt_env("mov dword ptr [esp], 0x6e69622f")
        assert ConstBytesWrite(contains=b"/bin").match(stmt, env, {}, EMPTY_CTX) == {}

    def test_push_via_register(self):
        stmt, env = stmt_env("mov edi, 0x68732f2f\npush edi", index=1)
        assert ConstBytesWrite(contains=b"sh").match(stmt, env, {}, EMPTY_CTX) == {}

    def test_wrong_bytes(self):
        stmt, env = stmt_env("push 0x41414141")
        assert ConstBytesWrite(contains=b"/bin").match(stmt, env, {}, EMPTY_CTX) is None


class TestMiscNodes:
    def test_reg_from_esp_fixed(self):
        stmt, env = stmt_env("mov ebx, esp")
        assert RegFromEsp(dst="ebx").match(stmt, env, {}, EMPTY_CTX) == {}

    def test_reg_from_esp_variable(self):
        stmt, env = stmt_env("mov ecx, esp")
        b = RegFromEsp().match(stmt, env, {}, EMPTY_CTX)
        assert b == {"ARG": ("reg", "ecx")}

    def test_push_value_predicate(self):
        stmt, env = stmt_env("push 0x7801cbd3")
        node = PushValue(predicate=lambda v: v >> 16 == 0x7801)
        assert node.match(stmt, env, {}, EMPTY_CTX) == {}
        bad = PushValue(predicate=lambda v: v == 0)
        assert bad.match(stmt, env, {}, EMPTY_CTX) is None

    def test_indirect_call(self):
        stmt, env = stmt_env("call eax")
        assert IndirectCall().match(stmt, env, {}, EMPTY_CTX) == {}

    def test_direct_call_rejected(self):
        stmt, env = stmt_env("x: call x")
        assert IndirectCall().match(stmt, env, {}, EMPTY_CTX) is None


class TestTemplateDescribe:
    def test_describe_lists_nodes(self):
        t = Template(name="t", nodes=[MemRmw(), PointerStep(), LoopBack()],
                     description="test", repeats={1: (1, 3)})
        text = t.describe()
        assert "template t" in text
        assert "x1..3" in text
        assert text.count("\n") >= 3

    def test_variables_collected(self):
        t = Template(name="t", nodes=[LoadFrom(), StoreTo()])
        assert t.variables() == {"R", "PTR"}


class TestConstCapture:
    def test_captures_pushed_sockaddr(self):
        from repro.core.template import ConstCapture
        stmt, env = stmt_env("push 0x5c110002")
        node = ConstCapture(var="SOCKADDR",
                            predicate=lambda v: (v & 0xFFFF) == 2)
        b = node.match(stmt, env, {}, EMPTY_CTX)
        assert b == {"SOCKADDR": ("const", 0x5C110002)}

    def test_captures_via_register(self):
        from repro.core.template import ConstCapture
        stmt, env = stmt_env("mov edi, 0x697a0002\npush edi", index=1)
        b = ConstCapture(var="V").match(stmt, env, {}, EMPTY_CTX)
        assert b == {"V": ("const", 0x697A0002)}

    def test_predicate_rejects(self):
        from repro.core.template import ConstCapture
        stmt, env = stmt_env("push 0x41414141")
        node = ConstCapture(predicate=lambda v: (v & 0xFFFF) == 2)
        assert node.match(stmt, env, {}, EMPTY_CTX) is None

    def test_unresolved_rejected(self):
        from repro.core.template import ConstCapture
        stmt, env = stmt_env("push eax")
        assert ConstCapture().match(stmt, env, {}, EMPTY_CTX) is None

    def test_sockaddr_port_helper(self):
        from repro.core.library import sockaddr_port
        assert sockaddr_port(0x5C110002) == 4444
        assert sockaddr_port(0x697A0002) == 31337


class TestDeclarations:
    """A statement is classified, and a node declares what it takes, in
    exactly one place each: ``Stmt.kinds`` and ``Node.admits`` /
    ``Node.needs``.  These tables are those declarations, spelled out."""

    def test_statement_kind_bits(self):
        from repro.ir import ops
        from repro.ir.ops import (
            K_A_BINOP, K_A_REG, K_A_UNOP, K_ALL, K_ASSIGN, K_BRANCH, K_CALL,
            K_CALL_IND, K_INT, K_JUMP, K_LOAD, K_OTHER, K_POP, K_PUSH,
            K_STORE, JUMP_KINDS,
        )
        reg, mem = ops.Reg("eax"), ops.MemRef(base=ops.Reg("ebx"))
        table = [
            (ops.Store(mem, reg), K_STORE),
            (ops.Push(reg), K_PUSH),
            (ops.Pop("eax"), K_POP),
            (ops.Interrupt(0x80), K_INT),
            (ops.Exchange("eax", "ebx", 4), K_OTHER),
            (ops.Compare(reg, reg), K_OTHER),
            (ops.StringWrite("stos", 1), K_OTHER),
            (ops.Nop(), K_OTHER),
            (ops.Unhandled(), K_OTHER),
            # every Assign source shape
            (ops.Assign("eax", 4, ops.Load(mem)), K_ASSIGN | K_LOAD),
            (ops.Assign("eax", 4, ops.BinOp("add", reg, reg)),
             K_ASSIGN | K_A_BINOP),
            (ops.Assign("eax", 4, ops.UnOp("not", reg)), K_ASSIGN | K_A_UNOP),
            (ops.Assign("eax", 4, reg), K_ASSIGN | K_A_REG),
            (ops.Assign("eax", 4, ops.Const(1)), K_ASSIGN),
            (ops.Assign("eax", 4, ops.UnknownExpr()), K_ASSIGN),
            # every Branch kind, with and without a target
            (ops.Branch("call", 0x10), K_BRANCH | K_CALL),
            (ops.Branch("call", None), K_BRANCH | K_CALL | K_CALL_IND),
            (ops.Branch("ret", None), K_BRANCH),
            (ops.Branch("ret", 0x10), K_BRANCH),
        ]
        for kind in JUMP_KINDS:
            table.append((ops.Branch(kind, 0x10), K_BRANCH | K_JUMP))
            table.append((ops.Branch(kind, None), K_BRANCH))
        for stmt, kinds in table:
            assert stmt.kinds == kinds, stmt
            assert kinds & K_ALL == kinds != 0
        # no statement class is left out of the table
        classes = {cls for cls in vars(ops).values()
                   if isinstance(cls, type) and issubclass(cls, ops.Stmt)}
        assert classes - {ops.Stmt} == {type(stmt) for stmt, _ in table}

    def test_def_masks_cover_every_location(self):
        from repro.ir.ops import LOC_BIT, Unhandled, loc_mask
        assert len(LOC_BIT) == 10
        assert loc_mask(Unhandled().defs()) == (1 << 10) - 1
        assert loc_mask(()) == 0
        assert loc_mask({"eax", "mem"}) == LOC_BIT["eax"] | LOC_BIT["mem"]

    def test_every_node_class_states_its_admission(self):
        import repro.core.template as template_module
        from repro.core.template import ConstCapture, Node
        from repro.ir.ops import (
            K_A_BINOP, K_A_REG, K_A_UNOP, K_ALL, K_BRANCH, K_CALL,
            K_CALL_IND, K_INT, K_JUMP, K_LOAD, K_PUSH, K_STORE,
        )
        declared = {  # class: (admits, needs)
            MemRmw: (K_STORE, K_STORE),
            LoadFrom: (K_LOAD, K_LOAD),
            StoreTo: (K_STORE, K_STORE),
            PointerStep: (K_A_BINOP, 0),
            RegCompute: (K_A_BINOP | K_A_UNOP, 0),
            RegFromEsp: (K_A_REG | K_A_BINOP, 0),
            LoopBack: (K_JUMP, K_BRANCH),
            Syscall: (K_INT, K_INT),
            ConstBytesWrite: (K_PUSH | K_STORE, 0),
            ConstCapture: (K_PUSH | K_STORE, 0),
            PushValue: (K_PUSH, K_PUSH),
            IndirectCall: (K_CALL_IND, K_CALL),
        }
        exported = {obj for obj in (getattr(template_module, name)
                                    for name in template_module.__all__)
                    if isinstance(obj, type) and issubclass(obj, Node)
                    and obj is not Node}
        assert exported == set(declared)
        for cls, (admits, needs) in declared.items():
            # stated on the class itself, not inherited from Node
            assert vars(cls)["admits"] == admits, cls
            assert cls.needs == needs, cls
        assert (Node.admits, Node.needs) == (K_ALL, 0)

    def test_subclass_inherits_and_bare_node_admits_everything(self):
        from repro.core.template import Node
        from repro.ir.ops import K_ALL, K_BRANCH, K_JUMP

        class BackEdge(LoopBack):
            pass

        class Opaque(Node):
            pass

        assert (BackEdge.admits, BackEdge.needs) == (K_JUMP, K_BRANCH)
        assert (Opaque.admits, Opaque.needs) == (K_ALL, 0)
        t = Template("t", [BackEdge(), Opaque()])
        assert t.required_kinds() == K_BRANCH
        assert t.required_features == {"branch"}

    def test_required_kinds_skip_optional_nodes(self):
        t = Template("opt", [PushValue(), StoreTo()], repeats={1: (0, 1)})
        assert t.required_features == {"push"}
        t.repeats = {}
        assert t.required_features == {"push", "store"}


class TestFingerprintCoversEveryField:
    """``Template.fingerprint()`` keys every derived cache and decides
    whether a hot reload is applied, so anything ``match`` reads must move
    it.  A predicate's identity is its ``label`` (callables are skipped)."""

    CHANGED = {int: lambda v: v + 1, str: lambda v: v + "X",
               bytes: lambda v: v + b"X", bool: lambda v: not v,
               frozenset: lambda v: v | {"sar"},
               dict: lambda v: {**v, "eax": 7},
               type(None): lambda v: 2}

    def node_classes(self):
        import repro.core.template as template_module
        from repro.core.template import Node
        return [obj for obj in (getattr(template_module, name)
                                for name in template_module.__all__)
                if isinstance(obj, type) and issubclass(obj, Node)
                and obj is not Node]

    def test_every_node_field_moves_the_fingerprint(self):
        from dataclasses import fields, replace
        checked = 0
        for cls in self.node_classes():
            node = cls()
            base = Template("t", [node]).fingerprint()
            for f in fields(node):
                value = getattr(node, f.name)
                if callable(value):
                    continue
                changed = replace(
                    node, **{f.name: self.CHANGED[type(value)](value)})
                assert Template("t", [changed]).fingerprint() != base, \
                    f"{cls.__name__}.{f.name} is not in describe()"
                checked += 1
        assert checked >= 20

    def test_access_width_is_described_only_when_set(self):
        assert LoadFrom().describe() == "R := mem[PTR]"
        assert LoadFrom(size=1).describe() == "R := membyte[PTR]"
        assert StoreTo().describe() == "mem[PTR] := R"
        assert StoreTo(size=4).describe() == "memdword[PTR] := R"
        assert MemRmw(size=None).describe().startswith("memany[PTR]")
