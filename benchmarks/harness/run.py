#!/usr/bin/env python3
"""repro-bench: six named workloads, end-to-end metrics, per-layer table.

Three ways to call it, all from the repository root:

``python3 benchmarks/harness/run.py --seed S``
    The full run: build every corpus from the seed, run each workload
    five times (round-robin, one fresh child process at a time, three
    passes over the capture per child), one extra traced run per
    workload for the per-layer table, the ungated ``strategy.*`` rows,
    the verdict oracle, then print everything and, when no flow failed,
    append one summary line to ``history.jsonl``.

``... --workload NAME --seed S --seconds N --trace 0|1``
    One workload, for the regression driver: start children until ``N``
    seconds of passes have been measured and print one JSON object as
    the last line — the gated end-to-end medians with ``--trace 0``,
    the per-layer rows with ``--trace 1``.

``... --compare A.json B.json``
    Spread-aware comparison of two ``--out`` files of the full run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HARNESS = Path(__file__).resolve().parent
if str(HARNESS) not in sys.path:
    sys.path.insert(0, str(HARNESS))

import metrics  # noqa: E402
import oracle  # noqa: E402

FULL_REPETITIONS = 5
STRATEGY_REPETITIONS = 3
#: passes over the capture per child process, each with a new sensor
PASSES = 3
#: set-up samples per driver-mode run (measuring children count; the rest
#: are children that build the sensor and exit)
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 170
MULTI_CPU = (os.cpu_count() or 1) > 1


# -- running children ---------------------------------------------------------


def spawn(workload, capture, workdir: Path, *, passes: int = PASSES,
          trace: bool = False, zoo: str | None = None) -> dict:
    """One repetition in a fresh child process; returns its result with
    ``wall_s`` (median pass) and ``pkts_per_s`` filled in.  ``passes=0``
    builds the sensor and exits: a set-up sample."""
    import workloads as W

    rep_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
    spec = {
        "strategy": "zoo" if zoo else workload.strategy,
        "zoo": zoo,
        "classification": workload.classification,
        "capture": capture.path,
        "warm_capture": str(workdir / "warm.pcap"),
        "packets": capture.packets,
        "ts_base_us": W.TS_BASE_US,
        "ts_step_us": W.TS_STEP_US,
        "trace": trace,
        "passes": passes,
        "workdir": str(rep_dir),
    }
    spec_path = rep_dir / "spec.json"
    try:
        spec["spawned"] = time.time()
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(HARNESS / "child.py"), str(spec_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(
            f"{workload.name}: child exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    walls = [one["wall_s"] for one in result["passes"]]
    result["wall_s"] = statistics.median(walls) if walls else 0.0
    result["pkts_per_s"] = capture.packets / result["wall_s"] if walls else 0.0
    return result


def make_workdir() -> Path:
    """Inside the harness directory (git-ignored), not the system temp
    directory: the benchmark writes only inside its checkout."""
    base = HARNESS / "_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


# -- judging and summarising --------------------------------------------------


def all_passes(reps: list[dict]) -> list[dict]:
    return [p for rep in reps for p in rep["passes"]]


def judge_passes(capture, passes: list[dict],
                 reference: list[list] | None) -> dict[str, str]:
    """Failed operations over every pass of a workload."""
    failures: dict[str, str] = {}
    for one in passes:
        failures.update(oracle.judge(capture, one["alerts"], one["counters"]))
        failures.update(oracle.diff_flows(
            capture, one["alerts"], passes[0]["alerts"], "the first pass"))
        if reference is not None:
            failures.update(oracle.diff_flows(
                capture, one["alerts"], reference, "the serial sensor"))
    return failures


def defined(name: str, reps: list[dict]) -> bool:
    """A metric is defined on a workload when every repetition has it."""
    return all(rep.get(name) for rep in reps)


def summarise(reps: list[dict]) -> dict:
    """``{metric: spread over repetitions}`` for every end-to-end metric
    the workload defines."""
    out = {}
    for name, *_ in metrics.END_TO_END:
        if defined(name, reps):
            out[name] = dict(metrics.spread([rep[name] for rep in reps]),
                             values=[rep[name] for rep in reps])
    return out


def gated(reps: list[dict]) -> dict:
    """The driver-gated metrics of one driver-mode run: medians over its
    set-ups and over its measuring children."""
    return {"setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "peak_rss_mb": statistics.median(
                rep["peak_rss_mb"] for rep in reps if rep["passes"])}


def traced_rows(plain: list[dict], traced: dict) -> dict:
    """The per-layer rows of one workload: the traced child's table, the
    tracing overhead against the untraced repetitions, and the demoted
    end-to-end metrics, which come from the untraced repetitions."""
    rows = dict(traced["per_layer"])
    rows["obs.trace_overhead_share"] = traced["wall_s"] / (
        statistics.median(rep["wall_s"] for rep in plain)) - 1
    for name, *_ in metrics.DEMOTED:
        if defined(name, plain):
            rows[name] = statistics.median(rep[name] for rep in plain)
    return rows


def strategy_rows(capture, workdir: Path, repetitions: int) -> dict:
    """``strategy.<name>.pkts_per_s``: median over repetitions; 0 when
    the strategy is absent, or needs several CPUs on a 1-CPU host."""
    import adapters as sut
    import workloads as W

    samples: dict[str, list[float]] = {name: [] for name in sut.STRATEGIES}
    for _ in range(repetitions):
        for name, (_fn, multi) in sut.STRATEGIES.items():
            if multi and not MULTI_CPU:
                continue
            rep = spawn(W.REFERENCE, capture, workdir, passes=1, zoo=name)
            samples[name].append(rep["pkts_per_s"])
    return {f"strategy.{name}.pkts_per_s":
            statistics.median(values) if values else 0.0
            for name, values in samples.items()}


def fleet_speedup(fleet_pkts_per_s: float, serial_pkts_per_s: float) -> float:
    return fleet_pkts_per_s / serial_pkts_per_s if MULTI_CPU else 0.0


def as_metrics(values: dict, names) -> dict:
    return {name: {"value": values.get(name, 0.0),
                   "unit": metrics.unit_of(name)} for name in names}


# -- the driver's single-workload mode ----------------------------------------


def driver_run(args) -> int:
    import workloads as W

    workload = W.BY_NAME[args.workload]
    workdir = make_workdir()
    try:
        capture = W.write_capture(workload.corpus, args.seed, workdir,
                                  args.scale)
        W.write_warm_capture(workdir)
        reference = None
        serial_rate = 0.0
        if workload.strategy != "serial":
            ref = spawn(W.REFERENCE, capture, workdir, passes=1)
            reference = ref["passes"][0]["alerts"]
            serial_rate = ref["pkts_per_s"]
        if args.trace:
            plain = spawn(workload, capture, workdir)
            traced = spawn(workload, capture, workdir, passes=1, trace=True)
            reps = [plain, traced]
            values = traced_rows([plain], traced)
            if workload.strategy == "fleet":
                values["nids.fleet.speedup_vs_serial"] = fleet_speedup(
                    plain["pkts_per_s"], serial_rate)
                values.update(strategy_rows(capture, workdir, 1))
            names = [name for name, *_ in metrics.PER_LAYER]
        else:
            reps, measured = [], 0.0
            while measured < args.seconds:
                reps.append(spawn(workload, capture, workdir))
                measured += sum(p["wall_s"] for p in reps[-1]["passes"])
            setups = [spawn(workload, capture, workdir, passes=0)
                      for _ in range(SETUP_SAMPLES - len(reps))]
            values = gated(reps + setups)
            names = [name for name, *_ in metrics.GATED]
        failures = judge_passes(capture, all_passes(reps), reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for flow, reason in sorted(failures.items()):
        print(f"FAILED {flow}: {reason}", file=sys.stderr)
    attempted = len(capture.flows) * len(all_passes(reps))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": as_metrics(values, names),
    }))
    return 0


# -- the full run -------------------------------------------------------------


def host_fingerprint(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HARNESS,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": commit or "unknown", "seed": seed}


def full_run(args) -> int:
    import workloads as W

    workdir = make_workdir()
    results: dict = {"host": host_fingerprint(args.seed), "workloads": {}}
    failed_any = False
    try:
        W.write_warm_capture(workdir)
        captures = {}
        for workload in W.WORKLOADS:
            if workload.corpus not in captures:
                captures[workload.corpus] = W.write_capture(
                    workload.corpus, args.seed, workdir, args.scale)
        plan = W.WORKLOADS + [W.REFERENCE]
        reps: dict[str, list[dict]] = {w.name: [] for w in plan}
        for r in range(FULL_REPETITIONS):
            for workload in plan:
                print(f"repetition {r + 1}/{FULL_REPETITIONS} "
                      f"{workload.name}", file=sys.stderr)
                reps[workload.name].append(
                    spawn(workload, captures[workload.corpus], workdir))
        reference = reps[W.REFERENCE.name]
        serial_rate = statistics.median(r["pkts_per_s"] for r in reference)
        zoo = strategy_rows(captures["mixed"], workdir, STRATEGY_REPETITIONS)
        for workload in W.WORKLOADS:
            print(f"traced run {workload.name}", file=sys.stderr)
            capture = captures[workload.corpus]
            mine = reps[workload.name]
            traced = spawn(workload, capture, workdir, passes=1, trace=True)
            rows = traced_rows(mine, traced)
            rows.update(zoo if workload.corpus == "mixed" else {})
            if workload.strategy == "fleet":
                rows["nids.fleet.speedup_vs_serial"] = fleet_speedup(
                    statistics.median(r["pkts_per_s"] for r in mine),
                    serial_rate)
            judged = all_passes(mine + [traced])
            failures = judge_passes(
                capture, judged,
                reference[0]["passes"][0]["alerts"]
                if workload.strategy != "serial" else None)
            failed_any = failed_any or bool(failures)
            attempted = len(capture.flows) * len(judged)
            results["workloads"][workload.name] = {
                "why": workload.why,
                "capture": {"sha256": capture.sha256,
                            "packets": capture.packets,
                            "payload_bytes": capture.payload_bytes,
                            "flows": len(capture.flows)},
                "end_to_end": summarise(mine),
                "per_layer": {name: rows.get(name, 0.0)
                              for name, *_ in metrics.PER_LAYER},
                "traced_wall_s": traced["wall_s"],
                "attempted": attempted,
                "failed": min(len(failures), attempted),
                "verdict_error_share":
                    min(len(failures), attempted) / attempted,
                "alert_digest": oracle.alert_digest(
                    mine[0]["passes"][0]["alerts"]),
                "failures": dict(sorted(failures.items())[:50]),
            }
        results["reference"] = {
            "serial_mixed": summarise(reference),
            "alert_digest": oracle.alert_digest(
                reference[0]["passes"][0]["alerts"])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(results)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    if args.scale == "pinned" and not failed_any:
        append_history(results)
    return 1 if failed_any else 0


def top_layers(entry: dict, count: int = 3) -> list[tuple[str, float]]:
    rows = entry["per_layer"]
    layers = sorted(metrics.LAYERS, key=lambda l: -rows[f"{l}.self_s"])
    return [(layer, rows[f"{layer}.self_s"]) for layer in layers[:count]]


def print_report(results: dict) -> None:
    host = results["host"]
    print(f"repro-bench  seed={host['seed']} commit={host['commit']} "
          f"nproc={host['nproc']} python={host['python']} "
          f"{host['platform']}")
    bounds = {name: bound
              for name, _u, _b, bound in metrics.END_TO_END}
    for name, entry in results["workloads"].items():
        cap = entry["capture"]
        print(f"\n== {name}: {cap['packets']} packets, "
              f"{cap['payload_bytes']} payload bytes, {cap['flows']} flows, "
              f"sha256 {cap['sha256'][:12]}")
        print(f"   {entry['why']}")
        print(f"   {'end-to-end metric':24s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'n':>3s} unit  bound")
        for metric, s in entry["end_to_end"].items():
            print(f"   {metric:24s} {s['median']:12.4f} {s['q1']:12.4f} "
                  f"{s['q3']:12.4f} {s['n']:3d} {metrics.unit_of(metric):5s} "
                  f"{bounds[metric]:.0%}")
        print(f"   {'verdict_error_share':24s} "
              f"{entry['verdict_error_share']:12.4f}  "
              f"({entry['failed']} of {entry['attempted']} flows; "
              f"alert digest {entry['alert_digest']})")
        for flow, reason in entry["failures"].items():
            print(f"   FAILED {flow}: {reason}")
        rows = entry["per_layer"]
        wall = entry["traced_wall_s"]
        print(f"   {'layer (traced run)':24s} {'calls':>10s} {'self_s':>10s} "
              f"{'of wall':>8s}")
        for layer in sorted(metrics.LAYERS,
                            key=lambda l: -rows[f"{l}.self_s"]):
            if rows[f"{layer}.calls"]:
                print(f"   {layer:24s} {rows[f'{layer}.calls']:10.0f} "
                      f"{rows[f'{layer}.self_s']:10.4f} "
                      f"{rows[f'{layer}.self_s'] / wall:8.1%}")
        print(f"   {'unattributed_s':24s} {'':10s} "
              f"{rows['unattributed_s']:10.4f} "
              f"{rows['unattributed_s'] / wall:8.1%}")
        print(f"   {'traced wall':24s} {'':10s} {wall:10.4f}   "
              f"obs.trace_overhead_share "
              f"{rows['obs.trace_overhead_share']:+.3f}")
        skip = {f"{l}.{c}" for l in metrics.LAYERS for c in ("calls", "self_s")}
        skip |= {"unattributed_s", "obs.trace_overhead_share"}
        skip |= {name for name, *_ in metrics.DEMOTED}
        for metric, value in rows.items():
            if metric in skip or not value:
                continue
            print(f"     {metric:40s} {value:14.4f} "
                  f"{metrics.unit_of(metric)}")
        if not MULTI_CPU and name == "fleet_mixed":
            print("     nids.fleet.speedup_vs_serial and multi-worker "
                  "strategy.* rows: unresolved (1-CPU host)")
        if name == "fleet_mixed":
            for row in metrics.STRATEGY_ROWS:
                if not rows[f"strategy.{row}.pkts_per_s"] and MULTI_CPU:
                    print(f"     strategy.{row}.pkts_per_s: absent")


def append_history(results: dict) -> None:
    """One compact line per clean pinned-scale full run, so the
    trajectory reads from git."""
    line = dict(results["host"], when=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                    time.gmtime()))
    line["workloads"] = {
        name: dict(
            {metric: round(s["median"], 4)
             for metric, s in entry["end_to_end"].items()},
            top_layer=top_layers(entry, 1)[0][0],
            verdict_error_share=entry["verdict_error_share"])
        for name, entry in results["workloads"].items()}
    with open(HARNESS / "history.jsonl", "a") as fh:
        fh.write(json.dumps(line, separators=(",", ":")) + "\n")


# -- comparing two full runs --------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for side, data in (("A", a), ("B", b)):
        host = data["host"]
        print(f"{side}: commit={host['commit']} seed={host['seed']} "
              f"nproc={host['nproc']} python={host['python']}")
    regressed = 0
    print(f"{'workload':14s} {'metric':22s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'bound':>6s} verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, _unit, better, bound in metrics.END_TO_END:
            sa = entry_a["end_to_end"].get(metric)
            sb = entry_b["end_to_end"].get(metric)
            if sa is None or sb is None:
                continue
            verdict = metrics.compare_metric(sa["values"], sb["values"],
                                             better, bound)
            regressed += verdict == "regressed"
            change = sb["median"] / sa["median"] - 1
            print(f"{name:14s} {metric:22s} {sa['median']:12.4f} "
                  f"{sb['median']:12.4f} {change:+8.1%} {bound:6.0%} "
                  f"{verdict}")
        if entry_b["failed"] > entry_a["failed"]:
            regressed += 1
            print(f"{name:14s} verdict_error_share worsened: "
                  f"{entry_a['failed']} -> {entry_b['failed']} failed flows")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver mode: seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 prints the per-layer rows")
    parser.add_argument("--out", help="full run: write the results JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--scale", choices=("pinned", "tiny"),
                        default="pinned",
                        help="corpus sizes; 'tiny' exists for test_harness.py "
                             "and measures nothing")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return driver_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
