"""The payload memo: each distinct payload is analysed once, on every
engine, and the memo can neither change a verdict nor be steered.

The contract (docs/architecture.md, "Scaling & caching"):

1. **Key** — ``content_key(payload)`` + the template fingerprint; the
   key is secret and per-process, a reload clears the memo, and
   ``frame_cache_size=0`` turns it off with the frame cache.
2. **Admission** — only a fault-free result is stored, so a degraded
   verdict is recomputed on every sighting.
3. **Sharing** — a hit hands back the stored ``PayloadResult`` itself;
   the records are frozen.
4. **Accounting** — a hit advances the pipeline totals exactly as a
   full analysis would (its frames as frame-cache hits); stage counters
   count only work that happened.
"""

import dataclasses
import hashlib
import multiprocessing
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyzer as analyzer_mod
from repro.core.analyzer import SemanticAnalyzer, content_key
from repro.engines.shellcode import get_shellcode
from repro.net.packet import udp_packet
from repro.net.pcap import read_pcap, write_pcap
from repro.nids import (ParallelSemanticNids, SemanticNids, SensorFleet,
                        build_engine)
from repro.nids.pipeline import FrameEntry, PayloadResult
from repro.resilience import DEGRADED_SEVERITY
from repro.scenario import load_scenario
from repro.scenario.runner import build_trace, render_alert_stream

SRC = Path(__file__).resolve().parents[2] / "src"
WORM_OUTBREAK = (Path(__file__).resolve().parents[2]
                 / "examples" / "scenarios" / "worm-outbreak.yaml")

EXECVE = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
BIND = bytes([0x90]) * 48 + get_shellcode("bind-4444-execve").assemble()
#: what a sequence draws from: two attacks (clean under ``xor-only``,
#: alerting under ``paper``), text, and binary noise with no template.
POOL = [EXECVE, BIND, b"GET /index.html HTTP/1.0\r\n\r\n",
        bytes(range(256)) * 2, b"\xcc" * 96]


def packet(payload, sport=1000):
    """One flow per ``sport``; the same ``sport`` is the same flow, so
    the parallel engine sends it to the same worker."""
    return udp_packet("6.6.6.6", "10.10.0.3", sport, 69, payload)


def serial(**kw):
    return SemanticNids(classification_enabled=False, **kw)


def parallel(**kw):
    return ParallelSemanticNids(workers=2, classification_enabled=False,
                                **kw)


ENGINES = pytest.mark.parametrize("make", [serial, parallel],
                                  ids=["serial", "parallel"])


def sighting(nids, payload, sport=1000):
    """Feed one payload and settle it; returns the alerts it raised."""
    alerts = nids.process_packet(packet(payload, sport))
    return alerts + nids.drain()


def extract_calls(nids):
    return nids.stats.extraction.calls


class TestContentKey:
    def test_equal_bytes_agree_within_a_process(self):
        assert content_key(EXECVE) == content_key(bytes(EXECVE))
        assert content_key(EXECVE) == content_key(memoryview(EXECVE))
        assert content_key(EXECVE) != content_key(BIND)
        assert len(content_key(b"")) == 16

    def test_key_differs_between_processes(self):
        """The digest is keyed with bytes drawn once per process: what
        one sensor computes tells a sender nothing about another."""
        code = ("from repro.core.analyzer import content_key; "
                "print(content_key(b'same bytes').hex())")
        seen = {subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
            capture_output=True, text=True, check=True,
            timeout=60).stdout.strip() for _ in range(2)}
        seen.add(content_key(b"same bytes").hex())
        assert len(seen) == 3

    def test_both_caches_key_on_it(self, monkeypatch):
        """Swap the process key: everything stored under the old one is
        unreachable, in the frame cache and in the memo alike."""
        nids = serial()
        sighting(nids, EXECVE)
        sighting(nids, EXECVE)
        assert nids.stats.payload_memo_hits == 1
        monkeypatch.setattr(analyzer_mod, "_KEY", bytes(16))
        misses = nids.stats.frame_cache_misses
        sighting(nids, EXECVE)
        assert nids.stats.payload_memo_hits == 1  # the memo missed
        assert nids.stats.frame_cache_misses > misses  # and so did this


class TestKeyAndInvalidation:
    @ENGINES
    def test_off_with_the_frame_cache(self, make):
        """No caching means none anywhere: every sighting is real work."""
        with_cache, without = make(), make(frame_cache_size=0)
        try:
            assert without._memo is None
            for nids in (with_cache, without):
                for sport in (1000, 1001, 1002):
                    assert sighting(nids, EXECVE, sport)
            assert extract_calls(with_cache) == 1
            assert extract_calls(without) == 3
            assert (without.stats.payload_memo_hits,
                    without.stats.payload_memo_misses) == (0, 0)
            assert without.stats.frame_cache_hits == 0
        finally:
            with_cache.close()
            without.close()

    @ENGINES
    def test_reload_clears_it_and_no_stale_verdict_replays(self, make):
        nids = make(template_set="xor-only")
        try:
            assert sighting(nids, EXECVE) == []
            assert len(nids._memo) == 1  # a clean verdict is stored
            assert nids.reload_template_set("paper") is True
            assert len(nids._memo) == 0
            # byte-identical payload, new library: analysed, not replayed
            hits = nids.stats.payload_memo_hits
            alerts = sighting(nids, EXECVE)
            assert [a.template for a in alerts] == ["linux_shell_spawn"]
            assert nids.stats.payload_memo_hits == hits
        finally:
            nids.close()

    def test_not_part_of_the_snapshot(self):
        nids = serial()
        sighting(nids, EXECVE)
        resumed = serial()
        resumed.restore_state(nids.snapshot_state())
        assert len(resumed._memo) == 0


class TestAdmission:
    """A degraded verdict is never memoised (the parallel engine used to
    store it and replay it for every identical payload)."""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the flaky analyzer only through fork")
    @ENGINES
    def test_faulted_payload_is_analysed_again(self, make, monkeypatch):
        real = SemanticAnalyzer.analyze_frame
        faulted = []  # per process: the worker forks it empty

        def flaky(self, data, base=0, deadline=None):
            if not faulted:
                faulted.append(True)
                raise RuntimeError("transient fault")
            return real(self, data, base, deadline=deadline)

        monkeypatch.setattr(SemanticAnalyzer, "analyze_frame", flaky)
        nids = make()
        try:
            first = sighting(nids, EXECVE)
            assert [a.severity for a in first] == [DEGRADED_SEVERITY]
            assert len(nids._memo) == 0  # refused admission
            second = sighting(nids, EXECVE)
            assert [a.template for a in second] == ["linux_shell_spawn"]
            third = sighting(nids, EXECVE)
            assert [a.template for a in third] == ["linux_shell_spawn"]
            # counted when it happened — not once per replay
            assert nids.firewall.faults_by_stage() == {"analyze": 1}
            assert (nids.stats.payload_memo_hits,
                    nids.stats.payload_memo_misses) == (1, 2)
        finally:
            nids.close()

    def test_deadline_trip_is_recomputed_every_sighting(self):
        from repro.resilience import DEADLINE_TEMPLATE, build_stall_payload
        stall = build_stall_payload(instructions=60_000)
        nids = serial(analysis_deadline_ms=5)
        for sport in (1, 2, 3):
            alerts = sighting(nids, stall, sport)
            assert [a.template for a in alerts] == [DEADLINE_TEMPLATE]
        assert len(nids._memo) == 0
        assert extract_calls(nids) == 3
        assert sum(nids.firewall.faults_by_stage().values()) == 3


class TestSharing:
    def test_a_hit_is_the_stored_object(self, monkeypatch):
        nids = serial()
        replayed = []
        replay = nids._replay

        def spy(pkt, payload, state, result):
            replayed.append(result)
            return replay(pkt, payload, state, result)

        monkeypatch.setattr(nids, "_replay", spy)
        a, = sighting(nids, EXECVE, 1000)
        stored, = nids._memo._entries.values()
        b, = sighting(nids, EXECVE, 1001)
        c, = sighting(nids, EXECVE, 1002)
        assert replayed[0] is replayed[1] is stored
        assert a.match is b.match is c.match
        assert a.detail is c.detail and a.frame_origin is c.frame_origin

    def test_records_refuse_mutation(self):
        entry = FrameEntry(template="t", severity="high", origin="o",
                           detail="d")
        result = PayloadResult(entries=(entry,), frames_extracted=1)
        for record, name in ((entry, "match"), (entry, "detail"),
                             (result, "entries"), (result, "cache_hits")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
        with pytest.raises((AttributeError, TypeError)):
            result.extra = 1  # slotted: no instance dict to hide state in
        assert not hasattr(result, "__dict__")


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(
    st.one_of(st.integers(0, len(POOL) - 1),
              st.sampled_from(["paper", "xor-only"])),
    min_size=1, max_size=30))
def test_memo_never_changes_alerts_or_totals(steps):
    """Payload sequences with repeats and interleaved reloads: the
    alerts and pipeline totals equal a run with all caching off, and the
    memo's own counters follow the convention — hits are exactly the
    repeats since the last library change, and only misses do work."""
    memo, plain = serial(), serial(frame_cache_size=0)
    loaded, seen, repeats = "paper", set(), 0
    for i, step in enumerate(steps):
        if isinstance(step, str):
            assert (memo.reload_template_set(step)
                    == plain.reload_template_set(step) == (step != loaded))
            if step != loaded:
                loaded, seen = step, set()
            continue
        repeats += step in seen
        seen.add(step)
        for nids in (memo, plain):
            nids.process_packet(packet(POOL[step], sport=1000 + i))
    assert ([a.format() for a in memo.alerts]
            == [a.format() for a in plain.alerts])
    for total in ("payloads_analyzed", "frames_extracted",
                  "frames_analyzed", "alerts"):
        assert getattr(memo.stats, total) == getattr(plain.stats, total)
    stats = memo.stats
    assert stats.payload_memo_hits == repeats
    assert (stats.payload_memo_hits + stats.payload_memo_misses
            == stats.payloads_analyzed)
    assert (stats.frame_cache_hits + stats.frame_cache_misses
            == stats.frames_analyzed)
    assert extract_calls(memo) == stats.payload_memo_misses
    assert extract_calls(plain) == plain.stats.payloads_analyzed
    assert (plain.stats.payload_memo_hits
            + plain.stats.payload_memo_misses) == 0


class TestEveryEngineOneStream:
    """Serial, parallel and both fleet transports print the same alert
    stream over the worm-outbreak scenario, with the memo on and off."""

    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("memo") / "worm-outbreak.pcap"
        write_pcap(path, build_trace(load_scenario(WORM_OUTBREAK)))
        return str(path)

    @staticmethod
    def digest(engine, capture):
        try:
            if isinstance(engine, SensorFleet):
                engine.process_capture(capture)
            else:
                engine.process_trace(read_pcap(capture))
            assert engine.alerts
            return hashlib.sha256(
                render_alert_stream(engine.alerts)).hexdigest()
        finally:
            engine.close()

    def test_identical_digests(self, capture):
        caching = load_scenario(WORM_OUTBREAK).engine.options
        digests = {}
        for label, options in (
                ("on", caching),
                ("off", dataclasses.replace(caching, frame_cache_size=0))):
            for name, make in (
                    ("serial", SemanticNids),
                    ("parallel", lambda o: build_engine("parallel", o)),
                    ("fleet-pickle", lambda o: build_engine(
                        "fleet", o, transport="pickle")),
                    ("fleet-offset", lambda o: build_engine(
                        "fleet", o, transport="offset"))):
                digests[name, label] = self.digest(make(options), capture)
        assert len(set(digests.values())) == 1, digests


def test_unique_payload_flood_stays_bounded():
    """50,000 distinct payloads: the memo evicts, it does not grow."""
    nids = serial()
    size = SemanticNids.PAYLOAD_MEMO

    def flood(start, count):
        for i in range(start, start + count):
            nids.process_packet(packet(b"GET /%d HTTP/1.0\r\n\r\n" % i))
        return start + count

    sent = flood(0, 44_000)
    tracemalloc.start()  # (5x the cost per packet: the tail only)
    try:
        # Turn the memo over once, so every entry it holds was allocated
        # under tracing and its eviction is seen as a free.
        sent = flood(sent, 2 * size)
        before, _ = tracemalloc.get_traced_memory()
        sent = flood(sent, 50_000 - sent)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(nids._memo) == size
    assert nids._memo.evictions == sent - size
    assert nids.stats.payload_memo_hits == 0
    assert after - before < 64 * 1024
