"""One repetition of one workload, in a process of its own.

Started by run.py as ``python child.py <spec.json>``; prints one JSON
object (the repetition's result) as its last line of standard output.

A repetition is one set-up — process start, ``import repro``, sensor
construction — followed by ``spec["passes"]`` passes over the capture,
each with a newly built sensor (so every pass starts with cold caches)
and a collected heap.  ``passes == 0`` measures the set-up alone.

The process is the single client of a closed loop: it hands the sensor
the next packet when the sensor returns.  The sensor sees only the
capture file.  Timing wrappers are installed only when the spec asks
for a traced run; everything an untraced run measures is read with the
client's own clock at the sensor's public boundary.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import adapters as sut  # importing the sensor is part of setup_s
import metrics
import tracing


def peak_rss_mb() -> float:
    """Peak resident set of this process, plus that of its largest reaped
    worker.  ``VmHWM`` rather than ``ru_maxrss``: the latter survives
    ``exec`` and so starts at the size of the run.py that spawned us."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    except OSError:
        pass
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + workers_kb) / 1024


def _alert_key(alert) -> list:
    return [round(alert.timestamp * 1e6), alert.source, alert.destination,
            alert.template]


LATENCIES = ("pkt_latency_p50_us", "pkt_latency_p99_us",
             "alert_latency_p50_ms", "alert_latency_p95_ms")


class _SetupOnly(Exception):
    """Raised by :meth:`_Pass.ready` in a child that only measures set-up."""


class _Pass:
    """One pass over the capture with a newly built sensor: the clock
    reads around the timed region, and the hand-in stamps."""

    def __init__(self, spec: dict, tracer, index: int) -> None:
        self.spec = spec
        self.tracer = tracer
        self.workdir = Path(spec["workdir"]) / f"pass-{index}"
        #: client clock at each hand-in (one more than packets: the read
        #: that found end-of-capture closes the last packet's interval)
        self.stamps: list[float] = []
        #: (alert, client clock when the client could first see it)
        self.observed: list[tuple] = []
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.pkt_latencies: list[float] = []
        self.counters: dict = {}
        self.registry = None
        self.extra_layer: dict = {}

    def ready(self) -> None:
        """Sensor built: setup ends, the timed region starts."""
        self.setup_s = time.time() - self.spec["spawned"]
        if not self.spec["passes"]:
            raise _SetupOnly
        if self.tracer is not None:
            self.tracer.recording = True
        self._workers0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._cpu0 = time.process_time()
        self._t0 = perf_counter()

    def finished(self) -> float:
        """Last alert in hand: the timed region ends.  Returns the
        client's clock at that moment."""
        end = perf_counter()
        self.wall_s = end - self._t0
        self.cpu_s = time.process_time() - self._cpu0
        if self.tracer is not None:
            self.tracer.recording = False
        return end

    def alert_latencies(self) -> list[float]:
        base, step = self.spec["ts_base_us"], self.spec["ts_step_us"]
        out = []
        for alert, seen in self.observed:
            i = (round(alert.timestamp * 1e6) - base) // step
            if 0 <= i < len(self.stamps):
                out.append(seen - self.stamps[i])
        return out

    def latencies(self) -> dict:
        """This pass's latency percentiles; one the pass has too few
        samples for (``metrics.supported``) reads 0."""
        pkt_p50, pkt_p99, _n = metrics.latency_summary(
            self.pkt_latencies, 1e6, 99)
        al_p50, al_p95, _n = metrics.latency_summary(
            self.alert_latencies(), 1e3, 95)
        if not al_p95:
            al_p50 = 0.0  # alert latency is reported as a pair or not at all
        return dict(zip(LATENCIES, (pkt_p50, pkt_p99, al_p50, al_p95)))

    def client(self, reader):
        """The capture as the client hands it in, one packet at a time."""
        stamp = self.stamps.append
        poll = reader.poll_packet
        while True:
            stamp(perf_counter())
            pkt = poll()
            if pkt is None:
                return
            yield pkt


def run_serial(run: _Pass) -> None:
    nids = sut.serial_sensor(run.spec["classification"])
    run.registry = nids.registry
    run.ready()
    observed = run.observed
    process = nids.process_packet
    with sut.PcapReader(run.spec["capture"]) as reader:
        for pkt in run.client(reader):
            alerts = process(pkt)
            if alerts:
                now = perf_counter()
                observed.extend((alert, now) for alert in alerts)
    tail = nids.flush()
    end = run.finished()
    observed.extend((alert, end) for alert in tail)
    stamps = run.stamps
    run.pkt_latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    run.counters = {"packets_seen": nids.stats.packets, "shed": 0,
                    "uncounted": 0}


def run_daemon(run: _Pass) -> None:
    observed = run.observed
    done: list[float] = []
    checkpoint_dir = run.workdir / "checkpoint"
    with sut.PcapReader(run.spec["capture"]) as reader:
        daemon = sut.daemon_sensor(
            run.client(reader), checkpoint_dir,
            lambda alert: observed.append((alert, perf_counter())))
        nids = daemon.nids
        run.registry = nids.registry
        inner = nids.process_packet

        def process(pkt):  # the client's view of "the sensor returned"
            out = inner(pkt)
            done.append(perf_counter())
            return out

        nids.process_packet = process
        run.ready()
        stats = daemon.run()
    run.finished()
    run.pkt_latencies = [b - a for a, b in zip(run.stamps, done)]
    run.counters = {"packets_seen": stats.processed, "shed": stats.shed,
                    "uncounted": stats.uncounted_drops,
                    "ingested": stats.ingested, "queued": stats.queued,
                    "backpressure_waits": stats.backpressure_waits}
    journal = checkpoint_dir / "journal"
    run.extra_layer = {
        "nids.daemon.shed": stats.shed,
        "nids.daemon.backpressure_waits": stats.backpressure_waits,
        "resilience.journal.bytes": sum(
            p.stat().st_size for p in journal.glob("*") if p.is_file()),
    }


def run_fleet(run: _Pass) -> None:
    fleet = sut.fleet_sensor()
    run.registry = fleet.registry
    try:
        # Spawn and warm the workers inside setup: one benign packet
        # through the real transport (process_capture ends in a flush).
        fleet.process_capture(run.spec["warm_capture"])
        warm = fleet.stats
        run.ready()
        alerts = fleet.process_capture(run.spec["capture"])
        end = run.finished()
        stats = fleet.stats
    finally:
        fleet.close()
    run.observed.extend((alert, end) for alert in alerts)
    dispatched = stats.dispatched - warm.dispatched
    run.counters = {"packets_seen": dispatched, "shed": 0, "uncounted": 0}
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    busy = (workers.ru_utime + workers.ru_stime
            - run._workers0.ru_utime - run._workers0.ru_stime)
    run.extra_layer = {
        "nids.fleet.feed_cpu_s": run.cpu_s,
        "nids.fleet.batches": stats.batches - warm.batches,
        "nids.fleet.ship_bytes": stats.ship_bytes - warm.ship_bytes,
        "nids.fleet.ring_full": stats.ring_full,
        "nids.fleet.worker_busy_share": busy / (stats.workers * run.wall_s),
    }


def run_zoo(run: _Pass) -> None:
    """One ungated ``strategy.*`` row; leaves ``wall_s`` at 0 when the
    strategy no longer exists."""
    fn, _multi = sut.STRATEGIES[run.spec["zoo"]]
    try:
        fn(run.spec["capture"], run.spec["warm_capture"], run.ready)
    except (ImportError, AttributeError, TypeError, ValueError):
        if run.setup_s:
            raise  # it existed and started: a real failure, not "absent"
        return
    run.finished()


RUNNERS = {"serial": run_serial, "daemon": run_daemon, "fleet": run_fleet,
           "zoo": run_zoo}


# -- per-layer table ----------------------------------------------------------


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(run: _Pass) -> dict:
    """Every per-layer row this process can know (run.py adds the rows
    that need a second run: trace overhead, serial speed-up, strategy)."""
    tracer = run.tracer
    snaps = [tracer.snapshot()] + tracer.worker_dumps()
    rows = tracing.layer_table(snaps, metrics.LAYERS, run.wall_s)
    tally: dict = {}
    for snap in snaps:
        for key, value in snap["tally"].items():
            tally[key] = tally.get(key, 0) + value

    def point(name: str, column: int) -> float:
        return sum(s["points"].get(name, (0, 0.0, 0.0))[column]
                   for s in snaps)

    def reg(name: str, **labels) -> float:
        return sut.registry_value(run.registry, name, **labels)

    hits = reg("repro_frame_cache_hits_total")
    ir_hits = reg("repro_ir_cache_hits_total")
    extract_in = reg("repro_stage_bytes_total", stage="extract")
    fresh = (tally.get("classify.bytes_forwarded", 0)
             - reg("repro_reassembly_overlap_bytes_trimmed_total"))
    rows.update({
        "net.pcap.bytes": tally.get("net.pcap.bytes", 0),
        "net.defrag.fragments_in": reg("repro_defrag_fragments_total"),
        "net.defrag.datagrams_out":
            reg("repro_defrag_datagrams_reassembled_total"),
        "classify.forward_share": _share(
            reg("repro_classify_forwarded_total"),
            reg("repro_classify_packets_total")),
        "net.flow.materialize_s": (point("Stream.data", 1)
                                   + point("Stream.contiguous_length", 1)),
        "net.flow.bytes_materialized":
            tally.get("net.flow.bytes_materialized", 0),
        "net.flow.overlap_bytes_trimmed":
            reg("repro_reassembly_overlap_bytes_trimmed_total"),
        "extract.bytes_in": extract_in,
        "extract.frames_out": reg("repro_frames_extracted_total"),
        "fastpath.skip_share": _share(
            reg("repro_fastpath_frames_skipped_total"),
            rows["fastpath.calls"]),
        "fastpath.starts_pruned":
            reg("repro_fastpath_candidate_starts_pruned_total"),
        "x86.disasm.instructions": tally.get("x86.disasm.instructions", 0),
        "ir.lift.instructions": tally.get("ir.lift.instructions", 0),
        "core.matcher.template_frame_pairs":
            tally.get("core.matcher.template_frame_pairs", 0),
        "core.matcher.budget_trips": reg("repro_match_budget_trips_total"),
        "core.matcher.match_share": _share(
            tally.get("core.matcher.matched_calls", 0),
            rows["core.matcher.calls"]),
        "core.analyzer.frame_cache_hit_share": _share(
            hits, hits + reg("repro_frame_cache_misses_total")),
        "core.analyzer.ir_cache_hit_share": _share(
            ir_hits, ir_hits + rows["x86.disasm.calls"]),
        "nids.pipeline.payloads_analyzed":
            reg("repro_payloads_analyzed_total"),
        "nids.pipeline.reanalysis_bytes_share":
            max(0.0, 1.0 - _share(fresh, extract_in)) if extract_in else 0.0,
        "resilience.journal.fsyncs": reg("repro_journal_fsync_total"),
        "resilience.delivery.retries": reg("repro_delivery_retries_total"),
        "resilience.checkpoint.bytes":
            tally.get("resilience.checkpoint.bytes", 0),
        "nids.fleet.feed_wall_s": (point("SensorFleet.process_capture", 2)
                                   - point("SensorFleet.flush", 2)),
        "nids.fleet.drain_wait_s": point("SensorFleet.flush", 2),
    })
    waits = [w for snap in snaps for w in snap["ring_waits"]]
    p50, p99, _n = metrics.latency_summary(waits, 1e6, 99)
    rows["nids.daemon.ring_wait_p50_us"] = p50
    rows["nids.daemon.ring_wait_p99_us"] = p99
    decoded = [s["points"].get("Packet.decode", (0,))[0] for s in snaps[1:]]
    rows["nids.fleet.shard_skew"] = (
        max(decoded) / (sum(decoded) / len(decoded))
        if decoded and sum(decoded) else 0.0)
    rows.update(run.extra_layer)
    return rows


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    tracer = None
    if spec["trace"]:
        tracer = tracing.LayerTracer(
            dump_dir=Path(spec["workdir"]) / "trace")
        tracer.install(sut.wrap_points())
    setup_s, last, done = 0.0, None, []
    try:
        for index in range(max(1, spec["passes"])):
            # Each pass starts from a collected heap and keeps nothing of
            # the sensor before it but plain numbers.
            last = None
            gc.collect()
            last = _Pass(spec, tracer, index)
            try:
                RUNNERS[spec["strategy"]](last)
            except _SetupOnly:
                pass
            setup_s = setup_s or last.setup_s
            if last.wall_s:
                done.append(dict(
                    last.latencies(), wall_s=last.wall_s,
                    alerts=[_alert_key(a) for a, _seen in last.observed],
                    counters=last.counters))
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
              "passes": done}
    # A latency is the median over the passes of each pass's own
    # percentile, and is defined only when every pass supports it.
    for name in LATENCIES:
        values = [one[name] for one in done]
        result[name] = (statistics.median(values)
                        if values and all(values) else 0.0)
    if tracer is not None:
        result["per_layer"] = per_layer(last)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
