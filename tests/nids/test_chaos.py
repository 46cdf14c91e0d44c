"""Deterministic chaos suite: replay a corpus under injected faults.

Every scenario asserts three things, per docs/robustness.md:

1. **survival** — the engine finishes the trace (no exception escapes);
2. **visibility** — the injected faults show up as degraded alerts /
   fault counters, and the injector's log proves faults actually fired;
3. **isolation** — alerts for *non-faulted* traffic are identical to a
   clean baseline run, and (self-healing) the shard breakers end closed.

Everything is seeded: the same seed replays the same fault plan, which
is what lets CI pin a seed matrix — the ``chaos`` job runs this file
once per ``CHAOS_SEEDS`` entry (defaults to ``0,1,2`` locally).
"""

import os

import pytest

from repro.engines.codered import CodeRedHost
from repro.net.packet import udp_packet
from repro.net.pcap import PcapReader, write_pcap
from repro.nids import ParallelSemanticNids, SemanticNids
from repro.resilience import (
    DEADLINE_TEMPLATE,
    DEGRADED_SEVERITY,
    FAULT_TEMPLATE,
    FaultInjector,
)

DARK_KW = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
               dark_threshold=5)
SEEDS = [int(s) for s in
         os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")]

BENIGN_NET = "192.168"


def codered_trace(attackers=2, victims=2, seed=5, subnet=40):
    packets = []
    for i in range(attackers):
        host = CodeRedHost(ip=f"10.{subnet + i}.1.2", seed=seed + i)
        packets += host.scan_packets(count=8, base_time=float(i))
        for v in range(victims):
            packets += host.exploit_packets(f"10.10.0.{5 + v}",
                                            base_time=10.0 + i + v * 0.01)
    packets.sort(key=lambda p: p.timestamp)
    return packets


def benign_packets(count=12):
    """Chatter from sources that never trip the classifier."""
    return [udp_packet(f"{BENIGN_NET}.1.{10 + i % 5}", "10.10.0.9",
                       5000 + i, 53, payload=b"benign query %d" % i,
                       timestamp=5.0 + i * 0.1)
            for i in range(count)]


def mixed_trace():
    packets = codered_trace() + benign_packets()
    packets.sort(key=lambda p: p.timestamp)
    return packets


def attack_alerts(nids):
    """The non-degraded alert multiset — what must survive any fault."""
    return sorted((a.template, a.source) for a in nids.alerts
                  if a.severity != DEGRADED_SEVERITY)


def degraded_alerts(nids):
    return [a for a in nids.alerts if a.severity == DEGRADED_SEVERITY]


def parallel_engine(**overrides):
    kw = dict(workers=2, breaker_backoff=0.0, **DARK_KW)
    kw.update(overrides)
    return ParallelSemanticNids(**kw)


def run(nids, packets):
    nids.process_trace(packets)
    nids.close()
    return nids


@pytest.fixture(scope="module")
def baseline():
    """Clean-run alert sets to diff every chaos scenario against."""
    return attack_alerts(run(SemanticNids(**DARK_KW), mixed_trace()))


class TestDecodeFaults:
    """Seeded DecodeError injection on benign-source classify calls."""

    def _plan(self, injector):
        faulted = injector.pick(population=12, k=4)
        benign_seen = [0]

        def should_fault(index, pkt):
            if not (pkt.src or "").startswith(BENIGN_NET):
                return False
            benign_seen[0] += 1
            return (benign_seen[0] - 1) in faulted

        return should_fault

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make_engine", [
        lambda: SemanticNids(**DARK_KW),
        parallel_engine,
    ], ids=["serial", "parallel"])
    def test_decode_faults_contained(self, seed, make_engine, baseline):
        injector = FaultInjector(seed=seed)
        nids = make_engine()
        with injector.decode_faults(nids, self._plan(injector)):
            run(nids, mixed_trace())

        assert injector.injected, "plan injected nothing — proves nothing"
        # Visibility: one degraded alert per faulted packet, attributed
        # to the decode stage (DecodeError outranks the classify site).
        faults = degraded_alerts(nids)
        assert len(faults) == len(injector.injected)
        assert all(a.template == FAULT_TEMPLATE for a in faults)
        assert all(a.frame_origin == "decode" for a in faults)
        assert nids.firewall.faults_by_stage() == {
            "decode": len(injector.injected)}
        # Isolation: the attack alert set is untouched.
        assert attack_alerts(nids) == baseline

    def test_same_seed_same_plan(self):
        logs = []
        for _ in range(2):
            injector = FaultInjector(seed=7)
            nids = SemanticNids(**DARK_KW)
            with injector.decode_faults(nids, self._plan(injector)):
                run(nids, mixed_trace())
            logs.append([(f.kind, f.at, f.detail)
                         for f in injector.injected])
        assert logs[0] == logs[1]

    def test_classifier_restored_after_scenario(self):
        injector = FaultInjector(seed=0)
        nids = SemanticNids(**DARK_KW)
        with injector.decode_faults(nids, lambda i, p: False):
            assert "classify" in nids.classifier.__dict__  # hook installed
        # Hook removed: lookups resolve to the class method again.
        assert "classify" not in nids.classifier.__dict__
        nids.close()


class TestWorkerKills:
    """Seeded worker-process kills mid-trace: the self-healing path."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kills_heal_and_alerts_survive(self, seed, baseline):
        injector = FaultInjector(seed=seed)
        trace = mixed_trace()
        kill_at = injector.pick(population=len(trace), k=2)

        engine = parallel_engine(frame_cache_size=0)
        for i, pkt in enumerate(trace):
            if i in kill_at:
                for shard in range(engine.workers):
                    injector.kill_shard(engine, shard)
            engine.process_packet(pkt)
        engine.close()

        assert injector.injected, "no kills fired"
        # Survival + isolation: every alert of the clean run, no extras.
        assert attack_alerts(engine) == baseline
        assert not degraded_alerts(engine)  # kills are ops faults, not input
        # Recovery: breakers re-closed by end of run.
        assert all(b.state == "closed" for b in engine._breakers)
        if engine.stats.worker_failures:
            assert engine.stats.pool_rebuilds >= 1

    def test_breaker_trips_open_then_recloses(self):
        # threshold=1 + a dead pool at submit time: the breaker must
        # open, route payloads serially, then re-close via a probe.
        engine = parallel_engine(frame_cache_size=0, breaker_threshold=1)
        injector = FaultInjector(seed=0)
        trace = codered_trace(attackers=1, victims=2)
        third = len(trace) // 3
        for i, pkt in enumerate(trace):
            if i == third:
                for shard in range(engine.workers):
                    injector.kill_shard(engine, shard)
            engine.process_packet(pkt)
        engine.flush()
        # A breaker only re-closes when a later payload probes its shard,
        # and flow→shard routing is hash-salted per run — so keep the
        # traffic coming until every opened breaker has had its probe.
        processed = list(trace)
        for extra in range(20):
            if all(b.state == "closed" for b in engine._breakers):
                break
            tail = codered_trace(attackers=1, victims=2,
                                 seed=100 + extra, subnet=90 + extra)
            engine.process_trace(tail)
            engine.flush()
            processed += tail
        engine.close()
        clean = attack_alerts(run(SemanticNids(**DARK_KW), processed))
        assert attack_alerts(engine) == clean
        assert all(b.state == "closed" for b in engine._breakers)
        if engine.stats.breaker_opened:
            # Whatever opened must have closed again.
            assert engine.stats.breaker_closed >= 1
            assert engine.stats.breaker_open_shards == 0


class TestAnalysisStalls:
    """Detector-stalling payloads against the per-payload deadline."""

    DEADLINE_MS = 5  # 50k units; the stall decodes ~80k instructions

    def _stall_trace(self, injector, stalls=2):
        packets = mixed_trace()
        for i in range(stalls):
            payload = injector.stall_payload(instructions=80_000)
            packets.append(udp_packet("10.66.6.6", "10.10.0.9",
                                      6000 + i, 69, payload=payload,
                                      timestamp=20.0 + i))
        return packets

    def _engines(self):
        return [
            ("serial", SemanticNids(classification_enabled=False,
                                    analysis_deadline_ms=self.DEADLINE_MS)),
            ("parallel", parallel_engine(
                classification_enabled=False,
                analysis_deadline_ms=self.DEADLINE_MS)),
        ]

    def test_stalls_trip_deadline_in_both_engines(self):
        results = {}
        for name, engine in self._engines():
            injector = FaultInjector(seed=3)
            run(engine, self._stall_trace(injector))
            assert injector.injected
            trips = degraded_alerts(engine)
            assert len(trips) == 2
            assert all(a.template == DEADLINE_TEMPLATE for a in trips)
            assert all(a.source == "10.66.6.6" for a in trips)
            # The stall source is quarantine-visible but NOT blocklisted:
            # spoofed stalls must not become a denial-of-service lever.
            assert "10.66.6.6" not in engine.blocklist.addresses()
            results[name] = sorted(
                (a.template, a.source, a.detail) for a in engine.alerts)
        # Deterministic instruction budget ⇒ byte-identical verdicts,
        # including the units-spent figure inside the detail string.
        assert results["serial"] == results["parallel"]

    def test_non_stall_traffic_unaffected(self):
        clean = run(SemanticNids(classification_enabled=False),
                    mixed_trace())
        for _, engine in self._engines():
            injector = FaultInjector(seed=3)
            run(engine, self._stall_trace(injector))
            assert attack_alerts(engine) == attack_alerts(clean)

    def test_deadline_off_analyzes_stall_fully(self):
        injector = FaultInjector(seed=3)
        nids = run(SemanticNids(classification_enabled=False),
                   self._stall_trace(injector, stalls=1))
        assert not degraded_alerts(nids)  # no budget, no trip


class TestTruncatedCapture:
    """A capture clipped mid-record still yields its complete prefix."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_salvage_preserves_prefix_alerts(self, tmp_path, seed):
        injector = FaultInjector(seed=seed)
        trace = mixed_trace()
        whole = tmp_path / "whole.pcap"
        clipped = tmp_path / "clipped.pcap"
        write_pcap(whole, trace)
        injector.truncate(whole, clipped, drop=10 + seed)
        assert injector.injected

        for make_engine in (lambda: SemanticNids(**DARK_KW),
                            parallel_engine):
            nids = make_engine()
            with PcapReader(clipped, salvage=True,
                            registry=nids.registry) as reader:
                salvaged = list(reader)
            assert reader.truncated
            assert reader.records_read == len(trace) - 1
            run(nids, salvaged)
            baseline = run(SemanticNids(**DARK_KW), trace[:len(salvaged)])
            assert attack_alerts(nids) == attack_alerts(baseline)
            assert nids.registry.get(
                "repro_pcap_truncated_total").value == 1


class TestQuarantineSmoke:
    """End-to-end: the CLI quarantines a stalling payload to disk."""

    def test_sensor_cli_quarantines_stall(self, tmp_path, capsys):
        from repro.cli import sensor_main
        from repro.net.pcap import read_pcap

        injector = FaultInjector(seed=0)
        # 60k instructions: above the 50k-unit budget, and the payload
        # still fits a UDP datagram's 16-bit length on the wire.
        stall = injector.stall_payload(instructions=60_000)
        trace = codered_trace(attackers=1, victims=1)
        trace.append(udp_packet("10.66.6.6", "10.10.0.9", 6000, 69,
                                payload=stall, timestamp=30.0))
        capture = tmp_path / "chaos.pcap"
        write_pcap(capture, trace)
        quarantine = tmp_path / "quarantine.pcap"

        rc = sensor_main([str(capture), "--no-classify",
                          "--analysis-deadline-ms", "5",
                          "--quarantine-out", str(quarantine)])
        captured = capsys.readouterr()
        assert rc == 1  # detections found (CRII + degraded stall alert)
        assert "resilience.deadline-exceeded" in captured.out
        assert "quarantined 1 input(s)" in captured.err
        assert quarantine.exists()
        back = read_pcap(quarantine)
        assert len(back) == 1
        assert back[0].payload == stall
        meta = (quarantine.parent
                / (quarantine.name + ".meta.jsonl")).read_text()
        assert "resilience.deadline-exceeded" in meta
