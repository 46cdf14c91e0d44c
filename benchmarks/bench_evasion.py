"""Evasion gauntlet: alert-set invariance and absorbed pressure, per transform.

Replays one attack trace — dark-space-scanning attackers delivering
polymorphic (ADMmutate/Clet) overflows plus Code Red II sweeps — through
every registered evasion transform and reports, per transform: packet
inflation, whether the alert set matched the un-evaded baseline, the
front-end counters (overlap bytes trimmed, fragments dropped), and wall
time.  The acceptance bar is MATCH on every row: an attacker gains
nothing by re-encoding delivery.  A transform marked ``insertion`` (a
forged close mid-request) may read COUNTED instead: alerts were lost to
the cut, and ``repro_reassembly_segments_after_close_total`` says so.

Wall time per transform comes from a ``bench.*`` tracer span rather than
a hand-rolled clock, and every engine carries the bench tracer so the
``bench_tracer`` fixture can print a per-stage time breakdown across the
whole gauntlet — the same spans ``repro-sensor --trace-out`` streams.
"""

from repro.engines import (
    AdmMutateEngine,
    CletEngine,
    generic_overflow_request,
    get_shellcode,
)
from repro.engines.codered import CodeRedHost
from repro.net.layers import TCP_SYN
from repro.net.packet import tcp_packet
from repro.nids import SemanticNids
from repro.traffic import EVASIONS, apply_evasion, evasion_names

NIDS_KW = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
               dark_threshold=5)


def _tcp_flow(src, dst, sport, dport, request, base_time, mss=536):
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


def build_attack_trace(poly: int, crii: int, seed: int = 9):
    shell = get_shellcode("classic-execve").assemble()
    packets = []
    for i in range(poly):
        for engine, ip_base in ((AdmMutateEngine(seed=seed + i), 50),
                                (CletEngine(seed=seed + i), 70)):
            src = f"10.{ip_base + i}.1.3"
            for s in range(8):
                packets.append(tcp_packet(
                    src, f"10.77.{i + 1}.{s + 1}", 2000 + s, 80,
                    flags=TCP_SYN, seq=1, timestamp=float(i) + s * 0.001))
            request = generic_overflow_request(
                engine.mutate(shell, instance=i).data, seed=i)
            packets += _tcp_flow(src, "10.10.0.7", 3000 + i, 80, request,
                                 10.0 + i)
    for i in range(crii):
        host = CodeRedHost(ip=f"10.{40 + i}.1.2", seed=seed + i)
        packets += host.scan_packets(count=8, base_time=20.0 + i)
        packets += host.exploit_packets("10.10.0.5", base_time=30.0 + i)
    packets.sort(key=lambda p: p.timestamp)
    return packets


def _alert_set(nids):
    return sorted((a.template, a.source) for a in nids.alerts)


def _run(packets, tracer, tag):
    nids = SemanticNids(tracer=tracer, **NIDS_KW)
    with tracer.span(f"bench.{tag}") as span:
        nids.process_trace(packets)
        nids.close()
    return nids, span.duration


class TestEvasionGauntletBench:
    def test_gauntlet(self, scale, report, bench_tracer):
        poly = max(2, scale["throughput_poly"] // 8)
        crii = max(2, scale["throughput_crii"] // 8)
        trace = build_attack_trace(poly=poly, crii=crii)
        baseline_nids, baseline_t = _run(trace, bench_tracer, "baseline")
        baseline = _alert_set(baseline_nids)
        assert baseline, "baseline trace must alert"

        rows = [
            f"{'transform':26s} {'packets':>9s} {'inflate':>8s} "
            f"{'alerts':>7s} {'trimmed':>9s} {'dropped':>8s} "
            f"{'time':>8s} verdict",
            f"{'(none)':26s} {len(trace):9d} {'1.00x':>8s} "
            f"{len(baseline_nids.alerts):7d} {0:9d} {0:8d} "
            f"{baseline_t:7.2f}s baseline",
        ]
        mismatches = []
        for name in evasion_names():
            evaded = apply_evasion(name, trace, seed=3)
            nids, elapsed = _run(evaded, bench_tracer, name)
            match = _alert_set(nids) == baseline
            # An insertion attack may cost alerts, never silently: what
            # followed the forged close must have been counted.
            counted = (EVASIONS[name].insertion
                       and nids.reassembler.segments_after_close > 0)
            if not match and not counted:
                mismatches.append(name)
            rows.append(
                f"{name:26s} {len(evaded):9d} "
                f"{len(evaded) / len(trace):7.2f}x "
                f"{len(nids.alerts):7d} {nids.stats.overlaps_trimmed:9d} "
                f"{nids.stats.fragments_dropped:8d} {elapsed:7.2f}s "
                f"{'MATCH' if match else 'COUNTED' if counted else 'DIVERGED'}")
        report.table(
            f"Evasion gauntlet ({poly}x2 polymorphic + {crii} CRII attackers)",
            rows)
        assert not mismatches, f"alert set diverged under: {mismatches}"
