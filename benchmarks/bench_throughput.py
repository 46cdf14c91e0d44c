"""Stall isolation on the parallel flow-sharded engine.

One mixed trace — benign HTTP/SMTP/DNS conversations, Code Red II sweeps,
and polymorphic (ADMmutate) overflow campaigns (``build_mixed_trace``,
which ``bench_soak.py`` shares) — replayed with and without a
detector-stalling flow, each run wrapped in a ``bench.*`` tracer span.

Engine-against-engine throughput is the harness's job
(``benchmarks/harness``: ``pkts_per_s`` per workload and the
``strategy.parallel.pkts_per_s`` row).
"""

from repro.engines import AdmMutateEngine, generic_overflow_request, get_shellcode
from repro.engines.codered import CodeRedHost
from repro.net.layers import TCP_SYN
from repro.net.packet import tcp_packet
from repro.nids import ParallelSemanticNids
from repro.traffic import BenignMixGenerator

NIDS_KW = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
               dark_threshold=5)


def _tcp_flow(src, dst, sport, dport, request, base_time, mss=536):
    """SYN + mss-sized data segments + FIN for one request."""
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


def build_mixed_trace(benign: int, crii: int, poly: int, victims: int,
                      seed: int = 7):
    """Benign mix + CRII sweeps + polymorphic overflow campaigns.

    Each attacker first trips the dark-space classifier (so its payloads
    reach the analysis stages), then replays one request against every
    victim — the repetition a deployed sensor sees during a worm sweep,
    and what the content-hash caches exploit.
    """
    packets = BenignMixGenerator(seed=seed).generate_packets(benign)
    shell = get_shellcode("classic-execve").assemble()
    for i in range(crii):
        host = CodeRedHost(ip=f"10.{41 + i % 20}.{1 + i}.2", seed=seed + i)
        base = 0.5 + i * 0.01
        packets += host.scan_packets(count=8, base_time=base)
        for v in range(victims):
            packets += host.exploit_packets(f"10.10.0.{5 + v}",
                                            base_time=base + 1 + v * 0.003)
    for i in range(poly):
        src = f"10.{61 + i % 20}.{1 + i}.3"
        base = 0.7 + i * 0.01
        for s in range(8):
            packets.append(tcp_packet(src, f"10.66.{i + 1}.{s + 1}",
                                      2000 + s, 80, flags=TCP_SYN, seq=1,
                                      timestamp=base + s * 0.001))
        request = generic_overflow_request(
            AdmMutateEngine(seed=seed + i).mutate(shell, instance=i).data,
            seed=i)
        for v in range(victims):
            packets += _tcp_flow(src, f"10.10.0.{5 + v}", 3000 + v, 80,
                                 request, base + 1 + v * 0.003)
    packets.sort(key=lambda p: p.timestamp)
    return packets


def _run(trace, nids, tracer, tag):
    with tracer.span(f"bench.{tag}") as span:
        nids.process_trace(trace)
        nids.close()
    alerts = sorted((a.template, a.source) for a in nids.alerts)
    return span.duration, alerts, nids.stats


def test_stall_isolation_under_deadline(report, scale, bench_tracer):
    """A detector-stalling flow must not starve the other shards.

    One source sends Bania-style stall payloads (each decodes to ~80k
    instructions) alongside the normal mixed trace.  With a per-payload
    deadline the stalls are cut off after their budget, so the measured
    throughput over the *non-stall* packets should stay within 10% of a
    run with no stall flow at all — the degradation is contained to the
    offending flow's shard instead of spreading.
    """
    from repro.net.packet import udp_packet
    from repro.resilience import DEADLINE_TEMPLATE, build_stall_payload

    trace = build_mixed_trace(benign=scale["throughput_benign"] // 2,
                              crii=max(2, scale["throughput_crii"] // 2),
                              poly=max(2, scale["throughput_poly"] // 2),
                              victims=scale["throughput_victims"])
    stall = build_stall_payload(instructions=80_000)
    # One 5-tuple for every stall: sticky sharding pins the whole attack
    # to a single worker, which is precisely the isolation under test.
    stall_packets = [udp_packet("10.66.6.6", "10.10.0.9", 6000, 69,
                                payload=stall, timestamp=0.4 + i * 0.05)
                     for i in range(8)]
    # The stall source trips the dark-space classifier first, so its
    # payloads actually reach analysis.
    for s in range(8):
        stall_packets.insert(s, tcp_packet(
            "10.66.6.6", f"10.67.0.{s + 1}", 2000 + s, 80, flags=TCP_SYN,
            seq=1, timestamp=0.3 + s * 0.001))
    stalled_trace = sorted(trace + stall_packets, key=lambda p: p.timestamp)

    def engine(deadline_ms=5):
        return ParallelSemanticNids(workers=4,
                                    analysis_deadline_ms=deadline_ms,
                                    frame_cache_size=0,
                                    tracer=bench_tracer, **NIDS_KW)

    clean_s, clean_alerts, _ = _run(trace, engine(), bench_tracer,
                                    "stall-clean")
    stall_s, stall_alerts, _ = _run(stalled_trace, engine(), bench_tracer,
                                    "stall-injected")
    # The same stalled trace with no budget: what the attacker would have
    # cost us without the deadline (every stall analyzed to completion).
    unbounded_s, _, _ = _run(stalled_trace, engine(deadline_ms=None),
                             bench_tracer, "stall-unbounded")

    # Throughput over the shared (non-stall) packets only: the stall
    # packets' own (bounded) cost is the attacker's budget, not
    # collateral damage.
    clean_rate = len(trace) / clean_s
    stalled_rate = len(trace) / stall_s
    impact = 1.0 - stalled_rate / clean_rate
    import os
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1))
    deadline_alerts = [a for a in stall_alerts
                       if a[0] == DEADLINE_TEMPLATE]
    report.table("Stall isolation — per-payload deadline", [
        f"clean run:     {clean_s:6.2f}s  {clean_rate:8.0f} pkt/s over "
        f"{len(trace)} shared packets",
        f"stalled run:   {stall_s:6.2f}s  {stalled_rate:8.0f} pkt/s "
        f"(+{len(stall_packets)} stall-flow packets, deadline on)",
        f"unbounded run: {unbounded_s:6.2f}s (same trace, no deadline: "
        f"{unbounded_s / stall_s:.1f}x slower)",
        f"other-shard throughput impact: {impact * 100:+.1f}% "
        f"(target <= 10% with >= 2 CPUs; this host has {cpus})",
        f"deadline trips surfaced: {len(deadline_alerts)} degraded "
        f"alert(s) from the stall source",
    ])

    # The stalls were cut off and surfaced...
    assert len(deadline_alerts) == 8
    assert all(src == "10.66.6.6" for _, src in deadline_alerts)
    # ...and the rest of the traffic alerts exactly as before.
    assert [a for a in stall_alerts
            if a[0] != DEADLINE_TEMPLATE] == clean_alerts
    # The deadline caps the attacker-imposed work: bounding the budget
    # must beat analyzing the stalls to completion.
    assert stall_s < unbounded_s
    if cpus >= 2:
        # Wall-clock isolation only exists when the stall shard can run
        # concurrently with the rest.  Lenient CI bound (jitter); the
        # reported number is the one held to the 10% target.
        assert impact <= 0.35
