"""Deterministic chaos harness: prove the containment layer, on demand.

Fault tolerance that is never exercised is fault tolerance that does not
exist.  This module injects the failure modes the resilience layer
claims to survive — decode faults, worker-process kills, analysis
stalls, truncated captures — in a *seeded, replayable* way, so the chaos
suite (``tests/nids/test_chaos.py``) can assert byte-identical behaviour
run after run and CI can pin a seed matrix.

Injection is monkeypatch-style: hooks are installed by context manager
and always restored, so a failing assertion never leaks a wrapped
classifier into the next test.  The injector records every fault it
fires (:attr:`FaultInjector.injected`) — a chaos run that injected
nothing proves nothing, and the tests assert on this log.
"""

from __future__ import annotations

import errno
import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ..errors import DecodeError

__all__ = ["FaultInjector", "InjectedFault", "SimulatedCrash",
           "build_stall_payload", "truncate_capture"]


class SimulatedCrash(RuntimeError):
    """In-process stand-in for ``kill -9``: raised at a seeded point and
    deliberately NOT caught by the component under test — the harness
    lets it unwind past the daemon loop (skipping every clean-shutdown
    path) and abandons the instance, exactly as a dead process would."""

#: Single-byte opcodes that decode cleanly but are neither NOP-like (so
#: the sled detector does not swallow them into the sled) nor a repeated
#: dword pattern (so the return-address trimmer keeps them).  Period 8:
#: bytes four apart always differ.
_STALL_OPCODES = bytes([0x60, 0x61, 0x9C, 0x9D, 0xD7, 0xA4, 0xAA, 0xAC])


#: Anchor bait woven into the stall body every 256 bytes:
#: ``xor [eax], al`` (a MemRmw producer) and ``jmp +0`` (a LoopBack
#: producer targeting in-frame).  An adversary crafting a stall payload
#: includes exactly such bytes so the anchor prefilter cannot rule the
#: frame out for every template and cheaply defang the attack — without
#: them the payload never reaches the disassembler it is meant to stall.
#: The bait never completes a template (there is no pointer step), so it
#: adds no alert.
_STALL_BAIT = bytes([0x30, 0x00, 0xEB, 0x00])


def build_stall_payload(instructions: int = 40_000, sled: int = 48) -> bytes:
    """A payload crafted to stall the analyzer (Bania-style).

    A short NOP sled triggers extraction; the body is a long stream of
    valid single-byte instructions (plus periodic anchor bait, so the
    fast-path prefilter must admit the frame), and the disassemble →
    lift → match loop visits nearly ``instructions``-many instructions
    on one frame.  Against a per-payload deadline whose budget is below
    that count, analysis deterministically trips
    :class:`~repro.errors.DeadlineExceeded`.
    """
    body = instructions - sled
    reps = max(1, (body + len(_STALL_OPCODES) - 1) // len(_STALL_OPCODES))
    stream = bytearray((_STALL_OPCODES * reps)[:body])
    # Every preceding byte decodes as a one-byte instruction, so any
    # overwrite offset falls on an instruction boundary.  Each bait site
    # turns four one-byte instructions into two two-byte ones; pad the
    # tail so the payload still decodes to >= ``instructions`` total.
    sites = range(0, max(0, len(stream) - len(_STALL_BAIT)), 256)
    for at in sites:
        stream[at:at + len(_STALL_BAIT)] = _STALL_BAIT
    stream += _STALL_OPCODES * ((2 * len(sites) + 7) // 8)
    return b"\x90" * sled + bytes(stream)


def truncate_capture(src: str | Path, dst: str | Path, drop: int = 8) -> int:
    """Copy ``src`` minus its last ``drop`` bytes — a capture that died
    mid-record (a crashed sensor, a full disk).  Returns bytes written."""
    data = Path(src).read_bytes()
    if drop >= len(data):
        raise ValueError("cannot drop the whole capture")
    Path(dst).write_bytes(data[:-drop])
    return len(data) - drop


@dataclass
class InjectedFault:
    """One fault the injector actually fired (the proof-of-injection log)."""

    kind: str
    at: int
    detail: str = ""


class FaultInjector:
    """Seeded fault injection with self-restoring hooks."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.injected: list[InjectedFault] = []

    def pick(self, population: int, k: int) -> set[int]:
        """``k`` distinct indices in ``range(population)``, deterministic
        for the injector's seed."""
        k = min(k, population)
        return set(self.rng.sample(range(population), k))

    # -- decode faults -------------------------------------------------------

    @contextmanager
    def decode_faults(self, nids, should_fault):
        """Wrap the engine's classifier so chosen packets raise
        :class:`~repro.errors.DecodeError` mid-pipeline.

        ``should_fault(index, pkt)`` decides per classify call; faulted
        calls never reach the real classifier (the packet is the fault).
        """
        classifier = nids.classifier
        # The hook is an instance-dict override; remember whether one was
        # already installed (nested injectors) so restore is exact.
        had_override = "classify" in classifier.__dict__
        original = classifier.classify
        calls = itertools.count()

        def chaotic_classify(pkt):
            index = next(calls)
            if should_fault(index, pkt):
                self.injected.append(InjectedFault(
                    "decode", index, detail=str(pkt.src)))
                raise DecodeError(
                    f"chaos: injected decode fault at packet {index}")
            return original(pkt)

        classifier.classify = chaotic_classify
        try:
            yield self
        finally:
            if had_override:
                classifier.classify = original
            else:
                del classifier.__dict__["classify"]

    # -- worker kills --------------------------------------------------------

    def kill_shard(self, engine, shard: int) -> int:
        """SIGTERM every worker process of one shard pool; returns how
        many were killed.  The next result drained from that shard raises
        ``BrokenProcessPool``, which is exactly the event the self-healing
        path must absorb."""
        from ..nids.fleet import kill_pool

        pool = engine._pools[shard]
        if not getattr(pool, "_processes", None):
            # Flow→shard routing is hash-salted per run; a shard that saw
            # no payloads yet has no worker.  Force the spawn so the kill
            # actually lands (a dead pool stays dead: nothing to do).
            try:
                pool.submit(len, b"probe").result()
            except Exception:
                pass
        killed = kill_pool(pool, discard=False)
        self.injected.append(InjectedFault(
            "worker-kill", shard, detail=f"{killed} process(es)"))
        return killed

    # -- analysis stalls -----------------------------------------------------

    def stall_payload(self, instructions: int = 40_000) -> bytes:
        """A deterministic detector-stalling payload (logged)."""
        payload = build_stall_payload(instructions)
        self.injected.append(InjectedFault(
            "stall", instructions, detail=f"{len(payload)} bytes"))
        return payload

    # -- capture truncation --------------------------------------------------

    def truncate(self, src: str | Path, dst: str | Path, drop: int = 8) -> int:
        """Truncated-capture fault (logged); see :func:`truncate_capture`."""
        written = truncate_capture(src, dst, drop=drop)
        self.injected.append(InjectedFault(
            "truncate", drop, detail=f"{written} bytes kept"))
        return written

    # -- whole-process crashes (durability layer) ----------------------------

    @contextmanager
    def crash_on_processed(self, daemon, at: int):
        """Kill the daemon (mid-batch) once ``at`` packets have been
        processed in total: the wrapped ``process_packet`` raises
        :class:`SimulatedCrash` *before* analyzing packet ``at``, so the
        packet is neither analyzed nor counted — it is still on the
        ring, which dies with the process."""
        nids = daemon.nids
        had_override = "process_packet" in nids.__dict__
        original = nids.process_packet

        def crashing_process(pkt):
            if daemon._processed.value >= at:
                self.injected.append(InjectedFault(
                    "crash", at, detail="mid-batch"))
                raise SimulatedCrash(f"chaos: killed at {at} processed")
            return original(pkt)

        nids.process_packet = crashing_process
        try:
            yield self
        finally:
            if had_override:
                nids.process_packet = original
            else:
                nids.__dict__.pop("process_packet", None)

    @contextmanager
    def crash_on_checkpoint(self, store):
        """Kill the process mid-checkpoint: the temp file is durable but
        the rename never happens, so recovery must fall back to the
        previous checkpoint (or none)."""
        def explode(tmp_path):
            self.injected.append(InjectedFault(
                "crash", 0, detail=f"mid-checkpoint: {tmp_path.name}"))
            raise SimulatedCrash("chaos: killed before checkpoint rename")

        previous = store.pre_rename
        store.pre_rename = explode
        try:
            yield self
        finally:
            store.pre_rename = previous

    def crash_on_journal_write(self, journal, torn_bytes: int = 5) -> None:
        """Arm the journal's tear seam: the *next* append writes only the
        first ``torn_bytes`` bytes of its frame, fsyncs the torn tail to
        disk, and raises — the on-disk image a crash inside ``write()``
        leaves behind."""
        journal._tear_after_bytes = torn_bytes
        self.injected.append(InjectedFault(
            "crash", torn_bytes, detail="mid-journal-write"))

    def kill_workers(self, engine) -> int:
        """Hard-kill an engine's "process tree" (the parallel engine's
        or the fleet's worker pools; the serial engine has none):
        terminate and reap every worker, then drop the broken pools
        without flushing — in-flight work and collected-but-unemitted
        alerts are lost, as in a real process death.  Returns processes
        killed."""
        from ..nids.fleet import kill_pool

        killed = sum(kill_pool(pool) for pool in getattr(engine, "_pools", ()))
        if killed:
            engine._pools = []
            self.injected.append(InjectedFault(
                "crash", killed, detail="worker-kill"))
        return killed

    @contextmanager
    def spool_enospc(self, delivery):
        """Every spool write inside the context raises ``ENOSPC`` out of
        the spool journal, driving delivery's real containment path:
        count the refusal, never raise — the write-ahead journal, not
        the spool, is the loss backstop."""
        spool = delivery._open_spool()
        if spool is None:
            raise ValueError("delivery has no spool_dir configured")
        original = spool.append

        def refuse(key, alert):
            self.injected.append(InjectedFault(
                "enospc", 0, detail=f"spool refused key {key}"))
            raise OSError(errno.ENOSPC, "No space left on device (chaos)")

        spool.append = refuse
        try:
            yield self
        finally:
            spool.append = original
