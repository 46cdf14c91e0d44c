"""Tests for the parallel flow-sharded engine.

The contract is equivalence: the parallel engine must produce the same
alert set (template, source, count) as a serial run over the same
capture, with or without the content-hash caches, and must degrade to
the serial path — losing no alerts — when a worker dies.
"""

import pytest

from repro.core.analyzer import FrameCache, SemanticAnalyzer
from repro.core.library import TEMPLATE_SETS, resolve_template_set
from repro.engines import (
    AdmMutateEngine,
    CletEngine,
    generic_overflow_request,
    get_shellcode,
)
from repro.engines.codered import CodeRedHost
from repro.engines.generator import ExploitGenerator
from repro.net.layers import TCP_SYN
from repro.net.packet import tcp_packet, udp_packet
from repro.net.wire import Wire
from repro.nids import NidsSensor, ParallelSemanticNids, SemanticNids

HONEYPOT = "10.10.0.250"
DARK_KW = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
               dark_threshold=5)


def alert_set(nids):
    """The comparable essence of a run: (template, source) multiset."""
    return sorted((a.template, a.source) for a in nids.alerts)


def tcp_flow(src, dst, sport, dport, request, base_time, mss=536):
    out = [tcp_packet(src, dst, sport, dport, flags=TCP_SYN, seq=100,
                      timestamp=base_time)]
    seq, t, off = 101, base_time + 0.001, 0
    while off < len(request):
        chunk = request[off:off + mss]
        out.append(tcp_packet(src, dst, sport, dport, payload=chunk,
                              flags=0x18, seq=seq, timestamp=t))
        seq += len(chunk)
        off += len(chunk)
        t += 0.0005
    out.append(tcp_packet(src, dst, sport, dport, flags=0x11, seq=seq,
                          timestamp=t))
    return out


def codered_trace(attackers=3, victims=3, seed=5, subnet=40):
    packets = []
    for i in range(attackers):
        host = CodeRedHost(ip=f"10.{subnet + i}.1.2", seed=seed + i)
        packets += host.scan_packets(count=8, base_time=float(i))
        for v in range(victims):
            packets += host.exploit_packets(f"10.10.0.{5 + v}",
                                            base_time=10.0 + i + v * 0.01)
    packets.sort(key=lambda p: p.timestamp)
    return packets


def polymorphic_trace(instances=3, seed=9):
    shell = get_shellcode("classic-execve").assemble()
    packets = []
    for i in range(instances):
        for engine, ip_base in ((AdmMutateEngine(seed=seed + i), 50),
                                (CletEngine(seed=seed + i), 70)):
            src = f"10.{ip_base + i}.1.3"
            for s in range(8):  # trip the dark-space classifier first
                packets.append(tcp_packet(
                    src, f"10.77.{i + 1}.{s + 1}", 2000 + s, 80,
                    flags=TCP_SYN, seq=1, timestamp=float(i) + s * 0.001))
            request = generic_overflow_request(
                engine.mutate(shell, instance=i).data, seed=i)
            packets += tcp_flow(src, "10.10.0.7", 3000 + i, 80, request,
                                10.0 + i)
    packets.sort(key=lambda p: p.timestamp)
    return packets


def run_trace(nids, packets):
    nids.process_trace(packets)
    nids.close()
    return nids


class TestSerialEquivalence:
    """Parallel alert sets must match serial, corpus by corpus."""

    def test_table1_exploit_corpus(self):
        def fire(nids):
            wire = Wire()
            sensor = NidsSensor(nids)
            sensor.attach(wire)
            ExploitGenerator(wire).fire_all(HONEYPOT)
            sensor.flush()
            nids.close()
            return nids

        serial = fire(SemanticNids(honeypots=[HONEYPOT]))
        parallel = fire(ParallelSemanticNids(workers=2, honeypots=[HONEYPOT]))
        assert alert_set(parallel) == alert_set(serial)
        assert parallel.alerts_by_template() == serial.alerts_by_template()
        assert parallel.blocklist.addresses() == serial.blocklist.addresses()

    def test_table2_polymorphic_corpus(self):
        trace = polymorphic_trace()
        serial = run_trace(SemanticNids(**DARK_KW), trace)
        parallel = run_trace(ParallelSemanticNids(workers=2, **DARK_KW), trace)
        assert alert_set(serial)  # corpus actually alerts
        assert alert_set(parallel) == alert_set(serial)

    def test_codered_corpus(self):
        trace = codered_trace()
        serial = run_trace(SemanticNids(**DARK_KW), trace)
        parallel = run_trace(ParallelSemanticNids(workers=2, **DARK_KW), trace)
        assert alert_set(serial)
        assert alert_set(parallel) == alert_set(serial)

    def test_workers_one_is_serial_no_pools(self):
        trace = codered_trace(attackers=1, victims=1)
        engine = ParallelSemanticNids(workers=1, **DARK_KW)
        assert engine._pools == []
        serial = run_trace(SemanticNids(**DARK_KW), trace)
        assert alert_set(run_trace(engine, trace)) == alert_set(serial)
        assert engine.stats.payloads_offloaded == 0


class TestFrameCache:
    def test_cache_on_off_equivalence(self):
        trace = codered_trace()
        cached = run_trace(SemanticNids(**DARK_KW), trace)
        uncached = run_trace(
            SemanticNids(frame_cache_size=0, **DARK_KW), trace)
        assert alert_set(cached) == alert_set(uncached)
        assert cached.stats.frame_cache_hits > 0  # repeats actually hit
        assert uncached.stats.frame_cache_hits == 0

    def test_lru_eviction(self):
        cache = FrameCache(max_entries=2)
        cache.put(b"a", "A")
        cache.put(b"b", "B")
        assert cache.get(b"a") == "A"  # refresh a: b is now oldest
        cache.put(b"c", "C")           # evicts b
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.get(b"b") is None
        assert cache.get(b"a") == "A"
        assert cache.get(b"c") == "C"

    def test_analyzer_rehit_after_eviction(self):
        analyzer = SemanticAnalyzer(frame_cache_size=2)
        frames = [bytes([0x90]) * 40 + bytes([i]) * 8 for i in range(3)]
        for frame in frames:
            assert not analyzer.analyze_frame(frame).cached
        # frame 0 was evicted by frame 2: analyzing it again is a miss...
        assert not analyzer.analyze_frame(frames[0]).cached
        # ...while frame 2 is still resident.
        assert analyzer.analyze_frame(frames[2]).cached

    def test_identical_frame_hits(self):
        analyzer = SemanticAnalyzer()
        frame = get_shellcode("classic-execve").assemble()
        first = analyzer.analyze_frame(frame)
        second = analyzer.analyze_frame(frame)
        assert not first.cached and second.cached
        assert [m.template.name for m in second.matches] == \
            [m.template.name for m in first.matches]


class TestPayloadCache:
    def test_repeated_payload_not_reoffloaded(self):
        engine = ParallelSemanticNids(workers=2,
                                      classification_enabled=False)
        payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
        engine.process_packet(udp_packet("6.6.6.6", "10.10.0.3",
                                         1000, 69, payload))
        engine.flush()
        offloaded = engine.stats.payloads_offloaded
        engine.process_packet(udp_packet("6.6.6.7", "10.10.0.4",
                                         1000, 69, payload))
        engine.flush()
        engine.close()
        assert engine.stats.payloads_offloaded == offloaded  # replayed
        assert engine.stats.payloads_analyzed == 2
        assert engine.stats.frame_cache_hits > 0
        assert len({a.source for a in engine.alerts}) == 2


class TestDegradation:
    def test_worker_crash_self_heals(self):
        # A worker death rebuilds the pool and retries; the engine stays
        # parallel and no alert is lost.
        first = codered_trace(attackers=1, victims=2)
        second = codered_trace(attackers=2, victims=2, seed=11, subnet=80)
        serial = run_trace(SemanticNids(**DARK_KW), first + second)

        # caching off: repeated payloads must actually reach the
        # (dead) pools for the failure path to trigger.
        engine = ParallelSemanticNids(workers=2, frame_cache_size=0,
                                      breaker_backoff=0.0, **DARK_KW)
        engine.process_trace(first)  # spawns the worker processes
        assert engine.stats.payloads_offloaded > 0
        for pool in engine._pools:  # simulate every worker dying
            # Flow→shard routing is hash-salted per run, so a pool may
            # not have spawned yet; force the spawn so the kill lands.
            pool.submit(len, b"warm").result()
            for proc in (pool._processes or {}).values():
                proc.kill()
        engine.process_trace(second)
        engine.close()

        assert engine.stats.pool_rebuilds >= 1
        assert alert_set(engine) == alert_set(serial)
        # Healed: the breakers are closed again by the end of the run.
        assert all(b.state == "closed" for b in engine._breakers)

    def test_future_failure_mid_stream_keeps_submission_order(self):
        # A future that breaks with payloads queued behind it must not
        # reorder the merge: the drain recovers the broken head in place
        # and the alert sequence matches the serial engine's exactly.
        trace = codered_trace(attackers=3, victims=3)
        serial = run_trace(SemanticNids(**DARK_KW), trace)

        engine = ParallelSemanticNids(workers=2, frame_cache_size=0,
                                      max_pending=10_000,
                                      breaker_backoff=0.0, **DARK_KW)
        killed = False
        for i, pkt in enumerate(trace):
            engine.process_packet(pkt)
            if not killed and len(engine._pending) >= 3:
                # Strand the queued futures mid-stream.
                for pool in engine._pools:
                    for proc in (pool._processes or {}).values():
                        proc.kill()
                killed = True
        engine.flush()
        engine.close()

        assert killed, "test needs in-flight payloads to strand"
        assert [(a.source, a.template) for a in engine.alerts] == \
            [(a.source, a.template) for a in serial.alerts]

    def test_close_shuts_pools_down_when_flush_raises(self):
        # Regression: close() ran flush() outside any try/finally, so a
        # flush that raised orphaned every worker process.
        engine = ParallelSemanticNids(workers=2, **DARK_KW)
        procs = []
        for pool in engine._pools:
            pool.submit(len, b"warm").result()  # force the spawn
            procs.extend(pool._processes.values())
        assert len(procs) == 2

        def broken_flush():
            raise RuntimeError("drain failed")

        engine.flush = broken_flush
        with pytest.raises(RuntimeError, match="drain failed"):
            engine.close()
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        assert engine._pools == []

    def test_template_objects_rejected(self):
        from repro.core.library import paper_templates
        with pytest.raises(ValueError, match="template_set"):
            ParallelSemanticNids(workers=2, templates=paper_templates())

    def test_unknown_template_set(self):
        with pytest.raises(ValueError, match="unknown template set"):
            resolve_template_set("bogus")
        assert set(TEMPLATE_SETS) == {"paper", "all", "xor-only", "decoder"}
