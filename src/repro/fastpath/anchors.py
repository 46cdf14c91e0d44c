"""Template anchor compiler: necessary-condition byte prefiltering.

For each template node kind we derive the *complete* set of opcode byte
patterns whose instructions could lift (:mod:`repro.ir.lift`) to a
statement satisfying that node.  Because a decoded instruction's raw
bytes are a contiguous substring of the frame, a frame that contains no
byte of a node's producer set cannot contain any instruction able to
satisfy that node — anywhere, under any disassembly offset the sweep
tries.  That makes each derived pattern set a **necessary condition**:

- per template, every anchorable node contributes one *clause* (a set of
  byte patterns, at least one of which must occur in the frame);
- a template can match a frame only if **every** clause is hit (CNF);
- a frame can be skipped entirely only if every template is ruled out.

Soundness rests on two properties, both pinned by tests:

1. *Producer completeness*: the per-node sets below enumerate every
   opcode the disassembler (:mod:`repro.x86.disasm`) decodes into an
   instruction the lifter turns into a node-satisfying statement.
   Over-approximating (listing extra opcodes) only costs performance;
   under-approximating would lose detections, so nodes whose producer
   sets are broad or hard to pin down (``PointerStep``, ``RegCompute``,
   ``RegFromEsp`` — satisfiable by ``inc``/``dec``/``lea``/plain ALU
   bytes that are ubiquitous in text and binary data) contribute **no
   clause**, which is a sound weakening.
2. *Encoding-prefix form*: every pattern is the leading byte(s) of the
   producing instruction's encoding once legacy prefixes are stripped
   (``cd 80`` = opcode + immediate, ``0f 8x`` = the two-byte opcode), so
   a decoded instruction can satisfy a node only if its own post-prefix
   leading bytes equal one of the node's patterns — which is what lets
   the matcher prune candidate start positions per instruction
   (:meth:`repro.core.matcher.PreparedTrace.anchor_cum`), a strictly
   stronger check than looking for the bytes anywhere in the frame.

A template for which no clause can be derived is treated as
``always_scan`` (never prefiltered); templates may also opt out
explicitly via :attr:`repro.core.template.Template.always_scan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.template import (
    ConstBytesWrite,
    ConstCapture,
    IndirectCall,
    LoadFrom,
    LoopBack,
    MemRmw,
    Node,
    PushValue,
    StoreTo,
    Syscall,
    Template,
)
from .multimatch import VectorScanSet

__all__ = [
    "AnchorClause",
    "TemplateAnchors",
    "CompiledPrefilter",
    "PrefilterScan",
    "compile_prefilter",
    "derive_anchors",
]


def _singles(*codes: int) -> frozenset[bytes]:
    return frozenset(bytes([c]) for c in codes)


def _modrm_bytes(digits, require_base: bool,
                 include_reg: bool) -> list[int]:
    """All ModRM byte values whose reg field is in ``digits`` and whose
    mod/rm encode an eligible operand form.

    ``require_base=True`` keeps only memory forms with a decodable base
    register: mod 00/01/10, excluding the base-less ``[disp32]`` form
    (mod=00, rm=101) that ``_mem_base_reg`` provably rejects.  SIB forms
    (rm=100) are kept — they may carry a base.  ``include_reg=True``
    additionally admits register operands (mod=11), for group opcodes
    whose register forms also lift to the node's shape.
    """
    out = []
    for modrm in range(256):
        if ((modrm >> 3) & 7) not in digits:
            continue
        mod = modrm >> 6
        if mod == 3:
            if not include_reg:
                continue
        elif require_base and mod == 0 and (modrm & 7) == 5:
            continue
        out.append(modrm)
    return out


_ALL_DIGITS = frozenset(range(8))


def _opmod(opcodes, digits=_ALL_DIGITS, require_base: bool = True,
           include_reg: bool = False) -> frozenset[bytes]:
    """Two-byte ``opcode + ModRM`` patterns for the given opcodes, with
    the reg field constrained to ``digits`` (the /n of group opcodes)."""
    modrms = _modrm_bytes(digits, require_base, include_reg)
    return frozenset(bytes([op, modrm])
                     for op in opcodes for modrm in modrms)


# Opcodes whose memory-destination forms lift to the read-modify-write
# ``Store(src=BinOp(op, Load(mem), ...))`` / ``Store(src=UnOp(op, ...))``
# shape MemRmw matches, per lifted (normalized) operation name.  Every
# producer is a full ``opcode + ModRM`` pair: group opcodes (0x80-0x83
# immediates, 0xFE/0xFF inc/dec, 0xC0/0xC1/0xD0-0xD3 shifts, 0xF6/0xF7
# not/neg) select the operation via the ModRM reg field, so pinning the
# digit excludes the unrelated group members (e.g. ``cmp`` at /7, which
# lifts to Compare, not Store) — and requiring a based memory form
# excludes the register destinations MemRmw cannot match.  Digit maps
# follow the lifter's normalization: adc->add, sbb->sub, sal->shl,
# rcl->rol, rcr->ror.
_GROUP1 = (0x80, 0x81, 0x82, 0x83)
_SHIFT_OPS = (0xC0, 0xC1, 0xD0, 0xD1, 0xD2, 0xD3)
_RMW_PRODUCERS: dict[str, frozenset[bytes]] = {
    "add": (_opmod((0x00, 0x01, 0x10, 0x11)) | _opmod(_GROUP1, {0, 2})
            | _opmod((0xFE, 0xFF), {0})),
    "sub": (_opmod((0x28, 0x29, 0x18, 0x19)) | _opmod(_GROUP1, {3, 5})
            | _opmod((0xFE, 0xFF), {1})),
    "xor": _opmod((0x30, 0x31)) | _opmod(_GROUP1, {6}),
    "or": _opmod((0x08, 0x09)) | _opmod(_GROUP1, {1}),
    "and": _opmod((0x20, 0x21)) | _opmod(_GROUP1, {4}),
    "shl": _opmod(_SHIFT_OPS, {4, 6}),
    "shr": _opmod(_SHIFT_OPS, {5}),
    "sar": _opmod(_SHIFT_OPS, {7}),
    "rol": _opmod(_SHIFT_OPS, {0, 2}),
    "ror": _opmod(_SHIFT_OPS, {1, 3}),
    "not": _opmod((0xF6, 0xF7), {2}),
    "neg": _opmod((0xF6, 0xF7), {3}),
}

# ``Assign(src=Load(mem))`` with a register base (LoadFrom): mov r,rm
# (8A/8B), xchg reg,mem (86/87 — lifts to a Load assign plus a store),
# lodsb/lodsd (AC/AD — Load through esi, no ModRM), movzx/movsx from
# memory (0F B6/B7/BE/BF + ModRM, three-byte patterns).  All ModRM forms
# are based-memory only: register sources lift to plain register
# assigns, and the moffs loads (A0/A1) produce a base-less MemRef that
# LoadFrom provably rejects (``_mem_base_reg`` returns None).
_LOAD_PRODUCERS = (_opmod((0x86, 0x87, 0x8A, 0x8B))
                   | _singles(0xAC, 0xAD)
                   | frozenset(bytes([0x0F, op, modrm])
                               for op in (0xB6, 0xB7, 0xBE, 0xBF)
                               for modrm in _modrm_bytes(_ALL_DIGITS, True,
                                                         False)))

# ``Store(src=Reg)`` with a register base (StoreTo): mov rm,r (88/89)
# only — every other store form lifts with a BinOp/UnOp/Const/Unknown
# source, and the moffs stores (A2/A3) are base-less like the loads.
_STORETO_PRODUCERS = _opmod((0x88, 0x89))

# ``Branch`` with a *known* target in the jmp/jcc/loop family (LoopBack):
# short jcc (70-7F), loops + jecxz (E0-E3), jmp rel (E9/EB), near jcc
# (0F 80-8F).  ``jmp r/m`` (FF /4) and ``call`` decode with no target
# and cannot satisfy LoopBack.
_LOOPBACK_PRODUCERS = (_singles(*range(0x70, 0x80), 0xE0, 0xE1, 0xE2, 0xE3,
                                0xE9, 0xEB)
                       | frozenset(bytes([0x0F, b])
                                   for b in range(0x80, 0x90)))

# Relative-branch geometry of the LoopBack producers, used by the
# positional in-frame-target screen: opcode byte at frame offset ``p``
# jumps to ``p + size + rel`` where ``rel`` immediately follows the
# opcode.  Branch displacement widths are prefix-independent (the
# operand-size prefix does not shrink branch immediates in this decoder),
# so the arithmetic holds wherever the opcode sits in an instruction.
_LOOPBACK_REL8 = frozenset(range(0x70, 0x80)) | {0xE0, 0xE1, 0xE2, 0xE3,
                                                 0xEB}

# ``Push`` statements: push r32 (50-57), pushad (60 — eight pushes),
# push imm (68/6A), and the group-5 push (FF /6 — all ModRM forms:
# ``push r32`` via mod=11 and ``push [mem]`` both lift to Push).
_PUSH_PRODUCERS = (_singles(*range(0x50, 0x58), 0x60, 0x68, 0x6A)
                   | _opmod((0xFF,), {6}, require_base=False,
                            include_reg=True))

# ``Store`` whose source expression can resolve to a constant — directly
# (mov rm,imm: C6/C7 /0) or through constant propagation of a register
# source (mov rm,r: 88/89; mov moffs,acc: A2/A3).  ALU/shift stores
# carry BinOp/UnOp sources that ``_resolve`` provably rejects.  No base
# requirement: the consuming nodes (ConstBytesWrite/ConstCapture) accept
# any store destination, ``[disp32]`` included.
_CONST_STORE_PRODUCERS = (_opmod((0x88, 0x89), require_base=False)
                          | _singles(0xA2, 0xA3)
                          | _opmod((0xC6, 0xC7), {0}, require_base=False))

# ``Branch(kind="call", target=None)`` (IndirectCall): call r/m (FF /2)
# only, register and memory forms alike — call rel32 (E8) decodes with a
# concrete target, and the other group-5 digits are not calls.
_CALL_RM_PRODUCERS = _opmod((0xFF,), {2}, require_base=False,
                            include_reg=True)


def _node_patterns(node: Node) -> frozenset[bytes] | None:
    """The complete producer byte patterns for one node, or ``None`` when
    the node is not soundly anchorable."""
    if isinstance(node, MemRmw):
        out: frozenset[bytes] = frozenset()
        for op in node.ops:
            producers = _RMW_PRODUCERS.get(op)
            if producers is None:
                return None  # unknown op: refuse to anchor (sound)
            out |= producers
        return out or None
    if isinstance(node, LoadFrom):
        return _LOAD_PRODUCERS
    if isinstance(node, StoreTo):
        return _STORETO_PRODUCERS
    if isinstance(node, LoopBack):
        return _LOOPBACK_PRODUCERS
    if isinstance(node, Syscall):
        if not 0 <= node.vector <= 0xFF:
            return None
        patterns = {bytes([0xCD, node.vector])}
        if node.vector == 3:
            patterns.add(b"\xCC")  # int3 also lifts to Interrupt(3)
        return frozenset(patterns)
    if isinstance(node, (ConstBytesWrite, ConstCapture)):
        return _PUSH_PRODUCERS | _CONST_STORE_PRODUCERS
    if isinstance(node, PushValue):
        return _PUSH_PRODUCERS
    if isinstance(node, IndirectCall):
        return _CALL_RM_PRODUCERS
    # PointerStep / RegCompute / RegFromEsp / unknown future nodes:
    # producer sets too broad (or unenumerated) to anchor soundly.
    return None


def _loopback_target_in_frame(arr: np.ndarray) -> bool:
    """Positional necessary condition for LoopBack: some occurrence of a
    relative-branch opcode byte jumps to an offset *inside* the frame.

    A decoded branch satisfying LoopBack must have its target resolve to
    a decoded trace position, and every decoded instruction's address
    lies in ``[base, base + len(frame))`` — so the branch's target offset
    ``p + size + rel`` (prefix-independent, see ``_LOOPBACK_REL8``) must
    land in ``[0, len(frame))``.  Scanning every occurrence of the
    producer bytes over-approximates the set of decodable branches, so a
    frame where no occurrence targets in-frame provably cannot satisfy
    LoopBack under any disassembly offset.
    """
    n = int(arr.size)
    if n < 2:
        return False
    rel8 = _REL8_LOOKUP[arr[:-1]]
    idx = np.flatnonzero(rel8)
    if idx.size:
        rel = arr[idx + 1].astype(np.int64)
        rel = np.where(rel >= 128, rel - 256, rel)
        target = idx + 2 + rel
        if bool(np.any((target >= 0) & (target < n))):
            return True
    if n >= 5:
        idx = np.flatnonzero(arr[:n - 4] == 0xE9)
        if idx.size:
            target = idx + 5 + _rel32(arr, idx + 1)
            if bool(np.any((target >= 0) & (target < n))):
                return True
    if n >= 6:
        idx = np.flatnonzero(arr[:n - 5] == 0x0F)
        if idx.size:
            second = arr[idx + 1]
            idx = idx[(second >= 0x80) & (second <= 0x8F)]
        if idx.size:
            target = idx + 6 + _rel32(arr, idx + 2)
            if bool(np.any((target >= 0) & (target < n))):
                return True
    return False


_REL8_LOOKUP = np.zeros(256, dtype=bool)
for _b in _LOOPBACK_REL8:
    _REL8_LOOKUP[_b] = True
del _b


def _rel32(arr: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Signed little-endian 32-bit displacements read at ``at``."""
    rel = (arr[at].astype(np.int64)
           | (arr[at + 1].astype(np.int64) << 8)
           | (arr[at + 2].astype(np.int64) << 16)
           | (arr[at + 3].astype(np.int64) << 24))
    return np.where(rel >= 1 << 31, rel - (1 << 32), rel)


@dataclass(frozen=True)
class AnchorClause:
    """One CNF clause: the frame must contain >= 1 of these patterns for
    the owning template's ``label`` node to be satisfiable."""

    label: str
    patterns: frozenset[bytes]


@dataclass(frozen=True)
class TemplateAnchors:
    """The compiled necessary conditions of one template."""

    template_name: str
    clauses: tuple[AnchorClause, ...]
    always_scan: bool = False


def derive_anchors(template: Template) -> TemplateAnchors:
    """Derive the anchor clause set of one template.

    Optional nodes (``repeats`` minimum of 0) are not necessary and so
    contribute no clause.  A template yielding zero clauses — or flagged
    ``always_scan`` — is never prefiltered.
    """
    if template.always_scan:
        return TemplateAnchors(template.name, (), always_scan=True)
    clauses: list[AnchorClause] = []
    for i, node in enumerate(template.nodes):
        min_rep = template.repeats.get(i, (1, 1))[0]
        if min_rep < 1:
            continue  # optional node: not a necessary condition
        patterns = _node_patterns(node)
        if patterns:
            clauses.append(AnchorClause(label=type(node).__name__,
                                        patterns=patterns))
    if not clauses:
        return TemplateAnchors(template.name, (), always_scan=True)
    return TemplateAnchors(template.name, tuple(clauses))


@dataclass
class PrefilterScan:
    """Result of one prefilter pass over a frame.

    The scan records only *which* anchor patterns occur (plus a total
    occurrence count for the metrics): frame survival is a pure presence
    question, and start-position pruning matches clause patterns against
    decoded instruction encodings rather than frame offsets, so keeping
    per-pattern offset lists would be pay-for-nothing work on every
    frame.
    """

    #: template name -> survives (False = soundly ruled out)
    survivors: dict[str, bool]
    #: ids of anchor patterns occurring at least once in the frame
    present: frozenset[int]
    #: total anchor occurrences found in the frame
    anchor_hits: int = 0

    @property
    def any_survivor(self) -> bool:
        return any(self.survivors.values())

    def survives(self, name: str) -> bool:
        # Unknown templates are never filtered (sound default).
        return self.survivors.get(name, True)


class CompiledPrefilter:
    """All templates' anchor clauses compiled into one automaton.

    One :meth:`scan` pass answers, per template, "can this frame possibly
    match?" and yields the anchor occurrence offsets the match engine
    uses to prune candidate start positions.
    """

    def __init__(self, templates: list[Template]) -> None:
        self.anchors = [derive_anchors(t) for t in templates]
        self._pattern_ids: dict[bytes, int] = {}
        #: template name -> list of per-clause frozensets of pattern ids
        self.clause_ids: dict[str, list[frozenset[int]]] = {}
        for anchors in self.anchors:
            clause_ids: list[frozenset[int]] = []
            for clause in anchors.clauses:
                ids = frozenset(self._intern(p)
                                for p in sorted(clause.patterns))
                clause_ids.append(ids)
            self.clause_ids[anchors.template_name] = clause_ids
        self.patterns: list[bytes] = sorted(self._pattern_ids,
                                            key=self._pattern_ids.get)
        self.pattern_lengths = {pid: len(p)
                                for p, pid in self._pattern_ids.items()}
        # Scan plan: one vectorized presence pass over all patterns
        # (1-3 bytes today; anything longer falls back to Aho-Corasick
        # inside the scan set).
        self.scan_set = VectorScanSet(self.patterns)
        self.always_scan = {a.template_name for a in self.anchors
                            if a.always_scan}
        #: templates with a required LoopBack clause — the relative-branch
        #: producer set, however the node class is named — additionally
        #: gated by the positional in-frame-target screen.
        self.loopback_gated = {
            a.template_name for a in self.anchors
            if any(c.patterns == _LOOPBACK_PRODUCERS for c in a.clauses)}
        # Start-pruning form of each clause: the pattern bytes as integer
        # keys matchable against a decoded instruction's post-prefix
        # leading bytes (see anchor_cum).  A three-byte pattern (0F-map
        # opcode + ModRM) contributes its two-byte opcode prefix — the
        # producing instruction's post-prefix leading bytes necessarily
        # begin with it, so the weaker two-byte key is still a sound
        # filter.  Patterns of 4+ bytes (none today) disable pruning for
        # their clause; the frame-level scan still uses them.
        self.clause_prune: dict[str, list[tuple[frozenset[int],
                                                np.ndarray, np.ndarray,
                                                bool]]] = {}
        for anchors in self.anchors:
            entries = []
            for ids in self.clause_ids[anchors.template_name]:
                ones: set[int] = set()
                twos: set[int] = set()
                has_long = False
                for pid in sorted(ids):
                    pattern = self.patterns[pid]
                    if len(pattern) == 1:
                        ones.add(pattern[0])
                    elif len(pattern) == 2:
                        twos.add((pattern[0] << 8) | pattern[1])
                    elif len(pattern) == 3:
                        twos.add((pattern[0] << 8) | pattern[1])
                    else:
                        has_long = True
                entries.append((ids,
                                np.asarray(sorted(ones), dtype=np.int32),
                                np.asarray(sorted(twos), dtype=np.int32),
                                has_long))
            self.clause_prune[anchors.template_name] = entries

    def _intern(self, pattern: bytes) -> int:
        if pattern not in self._pattern_ids:
            self._pattern_ids[pattern] = len(self._pattern_ids)
        return self._pattern_ids[pattern]

    def scan(self, data) -> PrefilterScan:
        """One vectorized multi-pattern pass; verdicts for every compiled
        template."""
        arr = np.frombuffer(data, dtype=np.uint8)
        present, hits = self.scan_set.presence(arr)
        survivors = {
            anchors.template_name: (
                anchors.always_scan
                or all(ids & present
                       for ids in self.clause_ids[anchors.template_name])
            )
            for anchors in self.anchors
        }
        # Positional LoopBack screen, applied only to templates still
        # alive after the presence pass (computed once, lazily: most
        # benign frames die on presence alone).
        loop_ok: bool | None = None
        for name in self.loopback_gated:
            if survivors.get(name):
                if loop_ok is None:
                    loop_ok = _loopback_target_in_frame(arr)
                if not loop_ok:
                    survivors[name] = False
        return PrefilterScan(survivors=survivors,
                             present=frozenset(present), anchor_hits=hits)

    def clause_hits(
        self, name: str, scan: PrefilterScan
    ) -> list[tuple[frozenset[int], np.ndarray, np.ndarray, bool]] | None:
        """Start-pruning information for a surviving template: one
        ``(pattern-id key, 1-byte keys, 2-byte keys, has_long)`` tuple
        per necessary-condition clause.  The key lets callers cache
        derived per-trace data across templates sharing a clause; the
        sorted integer arrays are matched against each decoded
        instruction's post-prefix leading bytes by
        :meth:`repro.core.matcher.PreparedTrace.anchor_cum`.  ``None``
        for always-scan templates (no pruning information)."""
        if name in self.always_scan:
            return None
        return self.clause_prune.get(name) or None


def compile_prefilter(templates: list[Template]) -> CompiledPrefilter:
    """Compile the prefilter for a template set."""
    return CompiledPrefilter(templates)
