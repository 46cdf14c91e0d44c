"""The evasion gauntlet: differential equivalence under adversarial delivery.

Ground truth for each corpus is a serial sensor run over the un-evaded
trace.  Every evasion transform (tiny fragments, overlap, reorder,
duplicated/covered last fragments, TCP segment overlap + garbage
retransmission, flow interleaving) is then applied to the same trace and
the alert set — the (template, source) multiset — must come out identical,
for the serial AND the parallel engine.  Any divergence means the
reassembly front-end reconstructs traffic differently from an end host,
which is precisely the blind spot Ptacek & Newsham's attacks target.

The attacks on the close get their own class: a FIN sent ahead of the
tail must change nothing, and a forged FIN/RST mid-request (an insertion
attack, which no sensor can tell from a real close) must either still
alert or show up in ``repro_reassembly_segments_after_close_total``.
"""

import pytest

from repro.engines import (
    AdmMutateEngine,
    CletEngine,
    generic_overflow_request,
    get_shellcode,
)
from repro.engines.codered import CodeRedHost
from repro.engines.generator import ExploitGenerator
from repro.net.layers import TCP_SYN
from repro.net.packet import tcp_packet
from repro.net.pcap import PcapReader, write_pcap
from repro.net.wire import Wire
from repro.nids import NidsSensor, ParallelSemanticNids, SemanticNids
from repro.traffic import EVASIONS, apply_evasion, evasion_names

HONEYPOT = "10.10.0.250"
DARK_KW = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
               dark_threshold=5)
EVASION_SEED = 3
#: transforms that keep what the sensor can reconstruct equal to what the
#: end host does: the alert set must be invariant under each
PRESERVING = [n for n in evasion_names() if not EVASIONS[n].insertion]
INSERTIONS = [n for n in evasion_names() if EVASIONS[n].insertion]


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


def table1_trace():
    """Every Table 1 exploit fired at the honeypot, captured off the wire."""
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
    """name -> (packets, sensor kwargs, baseline serial alert set)."""
    out = {}
    for name, (build, kwargs) in CORPORA.items():
        packets = build()
        nids = SemanticNids(**kwargs)
        nids.process_trace(packets)
        nids.close()
        baseline = alert_set(nids)
        assert baseline, f"corpus {name} must alert un-evaded"
        out[name] = (packets, kwargs, baseline)
    return out


def run_serial(packets, kwargs):
    nids = SemanticNids(**kwargs)
    nids.process_trace(packets)
    nids.close()
    return nids


def run_parallel(packets, kwargs):
    nids = ParallelSemanticNids(workers=2, **kwargs)
    nids.process_trace(packets)
    nids.close()
    return nids


class TestSerialEquivalence:
    """Evaded alert set == un-evaded alert set, serial engine."""

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("transform", PRESERVING)
    def test_equivalence(self, corpora, corpus, transform):
        packets, kwargs, baseline = corpora[corpus]
        evaded = apply_evasion(transform, packets, seed=EVASION_SEED)
        nids = run_serial(evaded, kwargs)
        assert alert_set(nids) == baseline


class TestParallelEquivalence:
    """Evaded alert set == un-evaded alert set, parallel engine."""

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("transform", PRESERVING)
    def test_equivalence(self, corpora, corpus, transform):
        packets, kwargs, baseline = corpora[corpus]
        evaded = apply_evasion(transform, packets, seed=EVASION_SEED)
        nids = run_parallel(evaded, kwargs)
        assert alert_set(nids) == baseline


class TestAttacksOnTheClose:
    """Streams are reaped once closed, whole and analysed; none of that
    may become a way past the sensor.  Every corpus is first re-segmented
    (``tcp-tiny-segments``) so each request spans many segments and the
    close lands inside it."""

    @staticmethod
    def evade(packets, transform):
        tiny = apply_evasion("tcp-tiny-segments", packets, seed=EVASION_SEED)
        return apply_evasion(transform, tiny, seed=EVASION_SEED)

    @pytest.mark.parametrize("run", [run_serial, run_parallel])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_fin_ahead_of_the_tail_completes_nothing(self, corpora, corpus,
                                                     run):
        """The hole keeps the stream live: the tail is reassembled and
        analysed on the same stream, so nothing arrives "after close"."""
        packets, kwargs, baseline = corpora[corpus]
        nids = run(self.evade(packets, "tcp-fin-before-tail"), kwargs)
        assert alert_set(nids) == baseline
        assert nids.reassembler.segments_after_close == 0

    @pytest.mark.parametrize("run", [run_serial, run_parallel])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("transform", INSERTIONS)
    def test_forged_close_is_never_a_silent_pass(self, corpora, corpus,
                                                 transform, run):
        """The remainder of the request is analysed as a new stream and
        counted; an alert lost to the cut is visible as that count."""
        packets, kwargs, baseline = corpora[corpus]
        nids = run(self.evade(packets, transform), kwargs)
        got = alert_set(nids)
        assert set(got) <= set(baseline)          # nothing spurious
        assert nids.reassembler.segments_after_close > 0
        assert (nids.registry.get(
            "repro_reassembly_segments_after_close_total").value
            == nids.reassembler.segments_after_close)


class TestCountersEngage:
    """The evaded runs must actually exercise the hardened front-end —
    otherwise the gauntlet is vacuously green."""

    def test_fragment_overlap_trims_and_drops(self, corpora):
        packets, kwargs, _ = corpora["polymorphic"]
        nids = run_serial(
            apply_evasion("fragment-overlap", packets, seed=EVASION_SEED),
            kwargs)
        assert nids.stats.overlaps_trimmed > 0
        assert nids.stats.fragments_dropped > 0

    def test_dup_last_drops_covered_fragment(self, corpora):
        packets, kwargs, _ = corpora["codered"]
        nids = run_serial(
            apply_evasion("fragment-dup-last", packets, seed=EVASION_SEED),
            kwargs)
        assert nids.stats.fragments_dropped > 0

    def test_tcp_overlap_trims_stream_bytes(self, corpora):
        packets, kwargs, _ = corpora["polymorphic"]
        nids = run_serial(
            apply_evasion("tcp-overlap-retransmit", packets,
                          seed=EVASION_SEED),
            kwargs)
        assert nids.reassembler.overlaps_trimmed > 0
        assert nids.stats.overlaps_trimmed >= nids.reassembler.overlaps_trimmed

    def test_counters_reach_report(self, corpora):
        from repro.nids.report import build_report

        packets, kwargs, _ = corpora["polymorphic"]
        nids = run_serial(
            apply_evasion("fragment-overlap", packets, seed=EVASION_SEED),
            kwargs)
        report = build_report(nids)
        assert report.overlaps_trimmed > 0
        frontend = report.to_dict()["frontend"]
        assert frontend["overlaps_trimmed"] == report.overlaps_trimmed
        assert "evasion pressure absorbed" in report.render()

    def test_transforms_inflate_packet_count(self, corpora):
        packets, _, _ = corpora["table1"]
        for name in ("tiny-fragments", "fragment-overlap",
                     "tcp-tiny-segments"):
            evaded = apply_evasion(name, packets, seed=EVASION_SEED)
            assert len(evaded) > len(packets), name


class TestPcapRoundTrip:
    """An evaded trace survives pcap encode/decode: fragments written to
    disk, read back byte-exact, reassembled, and still alerted on (the
    acceptance scenario for overlapping + retransmitted-last captures)."""

    @pytest.mark.parametrize("transform", ["fragment-overlap",
                                           "fragment-dup-last",
                                           "tiny-fragments"])
    def test_evaded_pcap_still_alerts(self, tmp_path, corpora, transform):
        packets, kwargs, baseline = corpora["polymorphic"]
        evaded = apply_evasion(transform, packets, seed=EVASION_SEED)
        path = tmp_path / f"{transform}.pcap"
        write_pcap(path, evaded)
        with PcapReader(path) as reader:
            replayed = list(reader)
        assert len(replayed) == len(evaded)
        nids = run_serial(replayed, kwargs)
        assert alert_set(nids) == baseline

    def test_sensor_cli_reads_evaded_pcap(self, tmp_path, corpora):
        from repro.cli import sensor_main

        packets, _, _ = corpora["table1"]
        path = tmp_path / "evaded.pcap"
        write_pcap(path, apply_evasion("fragment-overlap", packets,
                                       seed=EVASION_SEED))
        status = sensor_main([str(path), "--honeypot", HONEYPOT,
                              "--max-streams", "1024"])
        assert status == 1  # alerts found


class TestMakeTraceEvade:
    def test_cli_writes_evaded_trace(self, tmp_path):
        from repro.cli import make_trace_main

        path = tmp_path / "evaded.pcap"
        status = make_trace_main([str(path), "--benign-only",
                                  "--packets", "200",
                                  "--evade", "tiny-fragments",
                                  "--evade-seed", "5"])
        assert status == 0
        with PcapReader(path) as reader:
            n = sum(1 for _ in reader)
        assert n > 200  # fragmentation inflates the packet count

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError, match="unknown evasion transform"):
            apply_evasion("nope", [])

    def test_registry_is_consistent(self):
        assert evasion_names() == sorted(EVASIONS)
        for name, transform in EVASIONS.items():
            assert transform.name == name
            assert transform.description
