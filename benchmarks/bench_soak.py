"""Sustained-load soak of the always-on sensor daemon: the accounting.

Replays the mixed throughput trace (benign conversations + CRII sweeps +
polymorphic campaigns) through :class:`~repro.nids.SensorDaemon` in two
provisioning regimes:

- ``steady``: ring sized for the load — nothing sheds;
- ``burst``: a deliberately under-provisioned ring (smaller than one
  ingest batch), so capacity pressure *must* shed — the run proves the
  shedding is counted, never silent: the accounting identity
  ``ingested == processed + shed + queued`` holds at exit.

How fast and how large the daemon runs is the harness's to say
(``benchmarks/harness``, workload ``service_mixed``); this bench keeps
only what that does not assert.
"""

from repro.nids import IterPacketSource, SemanticNids, SensorDaemon

from bench_throughput import NIDS_KW, build_mixed_trace


def _soak(trace, *, ring_capacity, batch_size, shed_policy="newest"):
    nids = SemanticNids(**NIDS_KW)
    try:
        return SensorDaemon(nids, IterPacketSource(iter(trace)),
                            ring_capacity=ring_capacity,
                            batch_size=batch_size,
                            shed_policy=shed_policy).run()
    finally:
        nids.close()


def test_soak_daemon_sustained_load(report, scale):
    trace = build_mixed_trace(benign=scale["soak_benign"],
                              crii=scale["soak_crii"],
                              poly=scale["soak_poly"],
                              victims=scale["soak_victims"])
    steady = _soak(trace, ring_capacity=4096, batch_size=256)
    burst = _soak(trace, ring_capacity=32, batch_size=256)

    rows = [f"{'regime':8s} {'processed':>9s} {'shed':>7s} {'shed%':>6s} "
            f"{'alerts':>6s} {'uncounted':>9s}"]
    for tag, s in (("steady", steady), ("burst", burst)):
        rows.append(f"{tag:8s} {s.processed:9d} {s.shed:7d} "
                    f"{s.shed_rate * 100:5.1f}% {s.alerts:6d} "
                    f"{s.uncounted_drops:9d}")
    rows.append(f"soak over {len(trace)} packets; every regime exits with "
                f"uncounted_drops == 0")
    report.table("Soak — always-on daemon, shed accounting", rows)

    # The soak's hard guarantees: no silent drops in either regime, the
    # under-provisioned ring really shed (and counted every victim), and
    # the fully-provisioned ring shed nothing.
    assert steady.uncounted_drops == 0
    assert burst.uncounted_drops == 0
    assert steady.shed == 0
    assert burst.shed > 0
    assert burst.processed + burst.shed == burst.ingested
