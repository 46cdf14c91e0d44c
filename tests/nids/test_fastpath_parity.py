"""Differential alert parity: fast-path admission on vs off.

The prefilter's contract is that it may only *skip* work, never change
results — anchors are necessary conditions, so a frame or start position
it rules out provably cannot match.  This suite holds the whole pipeline
to that contract: for every corpus, every evasion-gauntlet transform,
and every chaos seed, the engine with the fast path enabled must emit an
alert stream byte-identical to ``--no-fastpath``.

The anchor-compilation unit tests pin the other half of the story: every
library template either yields a non-empty anchor clause set (each
clause derived only from nodes the template *requires*) or is explicitly
marked ``always_scan`` and never filtered.
"""

import os

import pytest
from interp_oracle import InterpretedMatchEngine

from repro.core import SemanticAnalyzer
from repro.core.library import paper_templates
from repro.core.template import (
    PointerStep,
    RegCompute,
    RegFromEsp,
    Template,
)
from repro.engines import (
    AdmMutateEngine,
    CletEngine,
    generic_overflow_request,
    get_shellcode,
    shellcode_names,
)
from repro.engines.codered import CodeRedHost
from repro.engines.generator import ExploitGenerator
from repro.fastpath import CompiledPrefilter, derive_anchors
from repro.net.layers import TCP_SYN
from repro.net.packet import tcp_packet
from repro.net.wire import Wire
from repro.nids import ParallelSemanticNids, SemanticNids
from repro.resilience import FaultInjector
from repro.traffic import BenignMixGenerator, apply_evasion, evasion_names

HONEYPOT = "10.10.0.250"
DARK_KW = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
               dark_threshold=5)
EVASION_SEED = 3
CHAOS_SEEDS = [int(s) for s in
               os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")]


def alert_stream(nids):
    """The full comparable alert stream, degraded alerts included."""
    return sorted((a.template, a.source, a.severity) for a in nids.alerts)


def run_serial(packets, kwargs, fastpath, interpreted=False):
    nids = SemanticNids(fastpath=fastpath, **kwargs)
    if interpreted:
        # the interpreter oracle rides the analyzer's engine= seam
        nids.analyzer = SemanticAnalyzer(
            templates=nids.analyzer.templates,
            engine=InterpretedMatchEngine(), fastpath=fastpath,
            registry=nids.registry, tracer=nids.tracer)
    nids.process_trace(packets)
    nids.close()
    return nids


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


def table1_trace():
    wire = Wire()
    packets = []
    wire.attach(packets.append)
    ExploitGenerator(wire).fire_all(HONEYPOT)
    return packets


def polymorphic_trace(instances=2, seed=9):
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


CORPORA = {
    "table1": (table1_trace, dict(honeypots=[HONEYPOT])),
    "polymorphic": (polymorphic_trace, DARK_KW),
    "codered": (codered_trace, DARK_KW),
}


@pytest.fixture(scope="module")
def corpora():
    """name -> (packets, sensor kwargs, fastpath-off baseline stream)."""
    out = {}
    for name, (build, kwargs) in CORPORA.items():
        packets = build()
        baseline = alert_stream(run_serial(packets, kwargs, fastpath=False))
        assert baseline, f"corpus {name} must alert"
        out[name] = (packets, kwargs, baseline)
    return out


class TestEvasionParity:
    """Fastpath-on == fastpath-off over every gauntlet transform."""

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_unevaded_parity(self, corpora, corpus):
        packets, kwargs, baseline = corpora[corpus]
        assert alert_stream(run_serial(packets, kwargs, True)) == baseline

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("transform", evasion_names())
    def test_evaded_parity(self, corpora, corpus, transform):
        packets, kwargs, _ = corpora[corpus]
        evaded = apply_evasion(transform, packets, seed=EVASION_SEED)
        off = alert_stream(run_serial(evaded, kwargs, False))
        on = alert_stream(run_serial(evaded, kwargs, True))
        assert on == off

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_parallel_parity(self, corpora, corpus):
        packets, kwargs, baseline = corpora[corpus]
        streams = {}
        for fastpath in (False, True):
            nids = ParallelSemanticNids(workers=2, fastpath=fastpath,
                                        **kwargs)
            nids.process_trace(packets)
            nids.close()
            streams[fastpath] = alert_stream(nids)
        assert streams[True] == streams[False] == baseline


class TestCompiledParity:
    """Compiled match plans == the recursive-interpreter oracle, over
    every corpus and the evasion gauntlet (the parallel engine runs the
    same analyzer in its workers; serial×parallel parity pins that
    seam).  The compiled executor's contract is the same as the
    prefilter's: skip provably fruitless work, never change the alert
    stream."""

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_unevaded_parity(self, corpora, corpus):
        packets, kwargs, baseline = corpora[corpus]
        # baseline was produced with compiled plans; the interpreter
        # must agree with it under both fastpath modes.
        assert alert_stream(
            run_serial(packets, kwargs, fastpath=False,
                       interpreted=True)) == baseline
        assert alert_stream(
            run_serial(packets, kwargs, fastpath=True,
                       interpreted=True)) == baseline

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("transform", evasion_names())
    def test_evaded_parity(self, corpora, corpus, transform):
        packets, kwargs, _ = corpora[corpus]
        evaded = apply_evasion(transform, packets, seed=EVASION_SEED)
        interpreted = alert_stream(
            run_serial(evaded, kwargs, fastpath=True, interpreted=True))
        compiled = alert_stream(
            run_serial(evaded, kwargs, fastpath=True))
        assert compiled == interpreted


class TestBenignSkipRate:
    """§4.3's cheap rejection must actually engage: on a benign corpus
    the anchor prefilter skips a nonzero share of analyzed frames, and
    skipping never costs an alert."""

    @pytest.fixture(scope="class")
    def benign_packets(self):
        wire = Wire()
        packets = []
        wire.attach(packets.append)
        gen = BenignMixGenerator(seed=11)
        for _ in range(120):
            gen.conversation(wire)
        return packets

    def run(self, packets, fastpath):
        # classification off = the §5.4 mode: every payload is analyzed,
        # so the prefilter sees the full benign frame population.
        nids = SemanticNids(classification_enabled=False, fastpath=fastpath,
                            frame_cache_size=0)
        nids.process_trace(packets)
        nids.close()
        return nids

    def test_benign_frames_actually_skipped(self, benign_packets):
        nids = self.run(benign_packets, fastpath=True)
        skipped = nids.registry.get(
            "repro_fastpath_frames_skipped_total").value
        analyzed = nids.registry.get("repro_frames_analyzed_total").value
        assert analyzed > 0
        assert skipped > 0, "prefilter never skipped a benign frame"
        assert not nids.alerts

    def test_skipping_costs_no_alert(self, benign_packets):
        on = self.run(benign_packets, fastpath=True)
        off = self.run(benign_packets, fastpath=False)
        assert alert_stream(on) == alert_stream(off) == []

    @pytest.mark.parametrize("mutator", ["admmutate", "clet"])
    def test_no_alert_bearing_frame_skipped(self, mutator):
        """Necessity under mutation: every template a mutated decoder
        frame satisfies must survive that frame's prefilter scan."""
        shell = get_shellcode("classic-execve").assemble()
        engines = {"admmutate": AdmMutateEngine(seed=23),
                   "clet": CletEngine(seed=23)}
        analyzer = SemanticAnalyzer()  # fastpath off: ground truth
        prefilter = CompiledPrefilter(analyzer.templates)
        checked = 0
        for i in range(6):
            data = engines[mutator].mutate(shell, instance=i).data
            matched = set(analyzer.analyze_frame(data).matched_names())
            scan = prefilter.scan(data)
            for name in matched:
                assert scan.survives(name), (mutator, i, name)
            checked += len(matched)
        assert checked, "mutated frames must match something"


class TestChaosParity:
    """Same injected faults, same alerts, fast path on or off.

    Decode faults are keyed by classify-call index, which the prefilter
    (downstream of classification) cannot perturb — so the same seed
    yields the same fault plan in both runs and the full alert streams,
    degraded alerts included, must agree.
    """

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_decode_fault_parity(self, corpora, seed):
        packets, kwargs, _ = corpora["codered"]
        streams = {}
        for fastpath in (False, True):
            injector = FaultInjector(seed=seed)
            faulted = injector.pick(len(packets), k=3)
            nids = SemanticNids(fastpath=fastpath, **kwargs)
            with injector.decode_faults(nids,
                                        lambda i, pkt: i in faulted):
                nids.process_trace(packets)
            nids.close()
            assert injector.injected, "chaos must actually fire"
            streams[fastpath] = alert_stream(nids)
        assert streams[True] == streams[False]


class TestAnchorCompilation:
    """Every library template compiles to usable, necessary anchors."""

    @pytest.mark.parametrize("template", paper_templates(),
                             ids=lambda t: t.name)
    def test_anchors_or_always_scan(self, template):
        anchors = derive_anchors(template)
        if anchors.always_scan:
            return  # explicitly opted out of filtering
        assert anchors.clauses, template.name
        for clause in anchors.clauses:
            assert clause.patterns, (template.name, clause.label)
            assert all(isinstance(p, bytes) and p for p in clause.patterns)

    @pytest.mark.parametrize("template", paper_templates(),
                             ids=lambda t: t.name)
    def test_clauses_come_only_from_required_nodes(self, template):
        """A clause derived from an optional node would be an unsound
        filter: the node can be absent from a genuine match."""
        anchors = derive_anchors(template)
        if anchors.always_scan:
            return
        required = sum(
            1 for i in range(len(template.nodes))
            if template.repeats.get(i, (1, 1))[0] >= 1)
        assert len(anchors.clauses) <= required

    def test_unanchorable_nodes_yield_no_clause(self):
        """Node kinds with unbounded producer encodings contribute no
        clause (sound weakening), so a template made only of them must
        fall back to always-scan."""
        template = Template(
            name="unanchorable",
            nodes=[RegFromEsp(), PointerStep(), RegCompute()])
        anchors = derive_anchors(template)
        assert anchors.always_scan

    def test_always_scan_template_never_filtered(self):
        flagged = [Template(name=t.name, nodes=t.nodes, repeats=t.repeats,
                            max_gap=t.max_gap, always_scan=True)
                   for t in paper_templates()]
        prefilter = CompiledPrefilter(flagged)
        scan = prefilter.scan(b"\x00" * 64)  # no anchors present
        for template in flagged:
            assert scan.survives(template.name)
            assert prefilter.clause_hits(template.name, scan) is None
        assert scan.any_survivor

    def test_unknown_template_survives_by_default(self):
        prefilter = CompiledPrefilter(paper_templates())
        scan = prefilter.scan(b"\x00" * 64)
        assert scan.survives("not-a-template")

    @pytest.mark.parametrize("name", shellcode_names())
    def test_anchors_necessary_on_real_shellcode(self, name):
        """End-to-end necessity: any template that matches a real
        shellcode frame must also survive that frame's prefilter scan —
        otherwise the anchor set filters out a true positive."""
        data = get_shellcode(name).assemble()
        analyzer = SemanticAnalyzer()  # fastpath off: ground truth
        matched = set(analyzer.analyze_frame(data).matched_names())
        scan = CompiledPrefilter(analyzer.templates).scan(data)
        for template_name in matched:
            assert scan.survives(template_name), template_name

    def test_frame_skip_only_when_no_survivor(self):
        prefilter = CompiledPrefilter(paper_templates())
        scan = prefilter.scan(b"ASCII text only, no opcodes here...")
        analyzer = SemanticAnalyzer(fastpath=True, frame_cache_size=0)
        if not scan.any_survivor:
            result = analyzer.analyze_frame(
                b"ASCII text only, no opcodes here...")
            assert result.instruction_count == 0
            assert not result.matches


class TestImportFootprint:
    def test_a_default_sensor_never_imports_numpy_ma(self):
        """``np.unique`` imports ``numpy.ma`` on first use: a 12 ms
        stall on the first scanned frame and 2.6 MB resident in every
        sensor, fleet worker and parallel worker, for a sort whose
        result went into a ``set``.  Checked in a fresh interpreter —
        this one has long since imported it."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import sys\n"
            "from repro.engines import EXPLOITS, ExploitGenerator\n"
            "from repro.net.wire import Wire\n"
            "from repro.nids import SemanticNids\n"
            "wire, packets = Wire(), []\n"
            "wire.attach(packets.append)\n"
            "ExploitGenerator(wire).fire(EXPLOITS[0], '10.10.0.250', seed=1)\n"
            "nids = SemanticNids(honeypots=['10.10.0.250'])\n"
            "alerts = nids.process_trace(packets)\n"
            "assert alerts and nids.stats.fastpath_anchor_hits > 0\n"
            "assert 'numpy' in sys.modules\n"
            "sys.exit('numpy.ma' in sys.modules)\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr or "numpy.ma was imported"
