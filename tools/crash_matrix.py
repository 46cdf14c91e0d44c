#!/usr/bin/env python
"""Kill-matrix runner: prove replay parity across every crash seam.

Runs the differential crash/restart harness
(``repro.resilience.recovery``) over the full matrix of

    engine        x  kill seam        x  seed
    serial           mid-batch           CHAOS_SEEDS (default 0,1,2)
    parallel         mid-checkpoint
    fleet-pickle     mid-journal-write
    fleet-offset

— every engine under the one durability layer (``SensorDaemon``),
through the one orchestrator, fed from one capture file — and writes one JSON report per cell (plus a summary) so CI can archive
the evidence.  A cell fails when the recovered post-dedupe alert stream
is not byte-identical to the uninterrupted run, when a schedule never
actually crashed, or when the accounting identity leaks
(``uncounted_drops != 0``).

Zero third-party dependencies; run as::

    PYTHONPATH=src python tools/crash_matrix.py --out crash-report.json

Exit code 0 when every cell holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engines.shellcode import get_shellcode  # noqa: E402
from repro.net.packet import udp_packet  # noqa: E402
from repro.nids import SensorOptions, build_engine  # noqa: E402
from repro.resilience.recovery import (  # noqa: E402
    KILL_KINDS,
    capture_sources,
    run_daemon_reference,
    run_daemon_with_crashes,
)
from repro.traffic.mix import BenignMixGenerator  # noqa: E402

_OPTIONS = SensorOptions(classification_enabled=False)

#: name -> (engine factory, fed record boundaries instead of packets?)
ENGINES = {
    "serial": (lambda: build_engine("serial", _OPTIONS), False),
    "parallel": (lambda: build_engine("parallel", _OPTIONS), False),
    "fleet-pickle": (lambda: build_engine("fleet", _OPTIONS), False),
    "fleet-offset": (lambda: build_engine("fleet", _OPTIONS,
                                          transport="offset"), True),
}


def crash_trace(n, seed, attacks=6):
    packets = BenignMixGenerator(seed=seed).generate_packets(n)[:n]
    sled = bytes([0x90]) * 48
    shellcode = get_shellcode("classic-execve").assemble()
    step = max(1, n // (attacks + 1))
    for i in range(attacks):
        at = step * (i + 1)
        packets[at] = udp_packet(
            f"6.6.{i}.6", "10.10.0.3", 1000 + i, 69, sled + shellcode,
            timestamp=float(packets[at].timestamp))
    return packets


def kill_schedule(seed, n, kills):
    rng = random.Random(seed)
    return sorted(rng.sample(range(20, n - 20), kills))


def run_cell(engine, kill_kind, seed, packets, kills):
    factory, meta = ENGINES[engine]
    with tempfile.TemporaryDirectory(prefix="crash-matrix-") as tmp:
        sources = capture_sources(packets, Path(tmp) / "trace.pcap",
                                  meta=meta)
        reference, _ = run_daemon_reference(sources, nids_factory=factory)
        report = run_daemon_with_crashes(
            sources, nids_factory=factory,
            checkpoint_dir=Path(tmp) / "state", kills=kills,
            kill_kind=kill_kind, checkpoint_interval=40,
            journal_fsync_batch=4, engine=engine)
    report.reference_lines = reference
    cell = report.as_dict()
    cell["seed"] = seed
    cell["ok"] = (report.parity and report.crashes >= 1
                  and not report.uncounted_drops)
    return cell


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Crash-recovery kill matrix (see docs/operations.md)")
    parser.add_argument("--seeds", default=os.environ.get(
        "CHAOS_SEEDS", "0,1,2"),
        help="comma-separated seeds (default $CHAOS_SEEDS or 0,1,2)")
    parser.add_argument("--engines", default=",".join(ENGINES),
                        help="comma-separated subset of: "
                             + ",".join(ENGINES))
    parser.add_argument("--packets", type=int, default=220,
                        help="trace length per cell (default 220)")
    parser.add_argument("--kills", type=int, default=2,
                        help="kills per schedule (default 2)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here (default stdout)")
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    for engine in engines:
        if engine not in ENGINES:
            parser.error(f"unknown engine {engine!r}")

    cells = []
    for seed in seeds:
        packets = crash_trace(args.packets, seed)
        kills = kill_schedule(seed, len(packets), args.kills)
        for engine in engines:
            for kill_kind in KILL_KINDS:
                cell = run_cell(engine, kill_kind, seed, packets, kills)
                cells.append(cell)
                status = "ok" if cell["ok"] else "FAIL"
                print(f"{status:4s} {engine:12s} {kill_kind:17s} "
                      f"seed={seed} crashes={cell['crashes']} "
                      f"alerts={cell['alerts']} "
                      f"replayed={cell['replayed']} "
                      f"deduped={cell['deduped']}",
                      file=sys.stderr)

    failed = [c for c in cells if not c["ok"]]
    summary = {
        "cells": cells,
        "total": len(cells),
        "failed": len(failed),
        "parity": not failed,
    }
    rendered = json.dumps(summary, indent=2)
    if args.out is not None:
        args.out.write_text(rendered + "\n")
    else:
        print(rendered)
    print(f"crash matrix: {len(cells) - len(failed)}/{len(cells)} cells ok",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
