"""Sustained-load soak of the always-on sensor daemon.

Replays the mixed throughput trace (benign conversations + CRII sweeps +
polymorphic campaigns) through :class:`~repro.nids.SensorDaemon` in two
provisioning regimes:

- ``steady``: ring sized for the load — nothing sheds; the run measures
  the daemon's sustained per-packet latency (p50/p99 straight from the
  ``repro_daemon_packet_seconds`` histogram) and the Python-heap ceiling
  (``tracemalloc`` peak) of an always-on loop over the whole trace;
- ``burst``: a deliberately under-provisioned ring (smaller than one
  ingest batch), so capacity pressure *must* shed — the run proves the
  shedding is counted, never silent: the accounting identity
  ``ingested == processed + shed + queued`` holds at exit.

Results land in ``BENCH_soak.json`` at the repo root (uploaded by the CI
soak-smoke job): per-regime p50/p99 latency, throughput, shed rate, and
the memory ceiling, plus an append-style ``history`` trajectory.
"""

import json
import resource
import tracemalloc
from pathlib import Path

from repro.nids import IterPacketSource, SemanticNids, SensorDaemon
from repro.obs import quantile_from_buckets

from bench_throughput import NIDS_KW, build_mixed_trace

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_soak.json"


def _soak(trace, *, ring_capacity, batch_size, shed_policy="newest"):
    nids = SemanticNids(**NIDS_KW)
    daemon = SensorDaemon(nids, IterPacketSource(iter(trace)),
                          ring_capacity=ring_capacity,
                          batch_size=batch_size,
                          shed_policy=shed_policy)
    tracemalloc.start()
    try:
        stats = daemon.run()
        _, heap_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        nids.close()
    hist = nids.registry.get("repro_daemon_packet_seconds")
    return dict(
        stats=stats,
        p50_us=quantile_from_buckets(hist.edges, hist.counts, 0.50) * 1e6,
        p99_us=quantile_from_buckets(hist.edges, hist.counts, 0.99) * 1e6,
        heap_peak_mb=heap_peak / 1e6,
    )


def test_soak_daemon_sustained_load(report, scale):
    trace = build_mixed_trace(benign=scale["soak_benign"],
                              crii=scale["soak_crii"],
                              poly=scale["soak_poly"],
                              victims=scale["soak_victims"])

    regimes = {
        "steady": _soak(trace, ring_capacity=4096, batch_size=256),
        "burst": _soak(trace, ring_capacity=32, batch_size=256),
    }

    rows = [f"{'regime':8s} {'pkt/s':>8s} {'p50':>9s} {'p99':>9s} "
            f"{'shed%':>6s} {'heap MB':>8s}"]
    for tag, r in regimes.items():
        s = r["stats"]
        rows.append(f"{tag:8s} {s.processed / max(s.duration, 1e-9):8.0f} "
                    f"{r['p50_us']:7.1f}us {r['p99_us']:7.1f}us "
                    f"{s.shed_rate * 100:5.1f}% {r['heap_peak_mb']:8.1f}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows.append(f"process peak RSS (whole test session): {rss_mb:.0f} MB")
    rows.append(f"soak over {len(trace)} packets; every regime exits with "
                f"uncounted_drops == 0")
    report.table("Soak — always-on daemon under sustained load", rows)

    entry = {
        "packets": len(trace),
        "scale": dict(scale),
        "regimes": {
            tag: {
                "packets_per_s": round(
                    r["stats"].processed / max(r["stats"].duration, 1e-9), 1),
                "p50_latency_us": round(r["p50_us"], 2),
                "p99_latency_us": round(r["p99_us"], 2),
                "shed_rate": round(r["stats"].shed_rate, 4),
                "shed": r["stats"].shed,
                "processed": r["stats"].processed,
                "alerts": r["stats"].alerts,
                "uncounted_drops": r["stats"].uncounted_drops,
                "heap_peak_mb": round(r["heap_peak_mb"], 2),
                "seconds": round(r["stats"].duration, 3),
            }
            for tag, r in regimes.items()
        },
        "process_peak_rss_mb": round(rss_mb, 1),
    }
    bench = {}
    if BENCH_JSON.exists():
        try:
            bench = json.loads(BENCH_JSON.read_text())
        except ValueError:
            bench = {}
    bench.update(entry)
    bench.setdefault("history", []).append({
        "packets": len(trace),
        "steady_packets_per_s":
            entry["regimes"]["steady"]["packets_per_s"],
        "steady_p99_latency_us":
            entry["regimes"]["steady"]["p99_latency_us"],
        "burst_shed_rate": entry["regimes"]["burst"]["shed_rate"],
    })
    BENCH_JSON.write_text(json.dumps(bench, indent=2) + "\n")
    report.row(f"wrote {BENCH_JSON.name} "
               f"(history: {len(bench['history'])} entries)")

    steady, burst = regimes["steady"]["stats"], regimes["burst"]["stats"]
    # The soak's hard guarantees: no silent drops in either regime, the
    # under-provisioned ring really shed (and counted every victim), and
    # the fully-provisioned ring shed nothing.
    assert steady.uncounted_drops == 0
    assert burst.uncounted_drops == 0
    assert steady.shed == 0
    assert burst.shed > 0
    assert burst.processed + burst.shed == burst.ingested
    # Latency quantiles came out of a populated histogram.
    assert regimes["steady"]["p99_us"] >= regimes["steady"]["p50_us"] > 0
