"""Shared benchmark infrastructure.

Every benchmark regenerates one table or figure of the paper and prints
its rows (visible with ``pytest benchmarks/ --benchmark-only -s``); rows
are also appended to ``benchmarks/out/results.txt`` so a full run leaves
a reviewable artifact.

Scale: set ``REPRO_SCALE=paper`` for paper-faithful workload sizes
(12 x 200k-packet traces, tens of MB of benign traffic); the default
"quick" scale keeps a full benchmark run in minutes while preserving
every qualitative result.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.obs import aggregate_spans, Tracer

OUT_DIR = Path(__file__).parent / "out"

SCALE = os.environ.get("REPRO_SCALE", "quick")

SCALES = {
    "quick": {
        "table3_packets": 20_000,
        "fp_payload_bytes": 4_000_000,
        "admmutate_instances": 100,
        "clet_instances": 100,
        "netsky_size": 8 * 1024,
        "throughput_benign": 150,
        "throughput_crii": 20,
        "throughput_poly": 20,
        "throughput_victims": 8,
        "soak_benign": 120,
        "soak_crii": 12,
        "soak_poly": 12,
        "soak_victims": 6,
    },
    "paper": {
        "table3_packets": 200_000,
        "fp_payload_bytes": 32_000_000,
        "admmutate_instances": 100,
        "clet_instances": 100,
        "netsky_size": 22 * 1024,
        "throughput_benign": 600,
        "throughput_crii": 40,
        "throughput_poly": 40,
        "throughput_victims": 12,
        "soak_benign": 500,
        "soak_crii": 30,
        "soak_poly": 30,
        "soak_victims": 10,
    },
}


@pytest.fixture(scope="session")
def scale() -> dict:
    return SCALES[SCALE]


@pytest.fixture(scope="session")
def report():
    """Collects result rows and writes them to the results artifact."""
    OUT_DIR.mkdir(exist_ok=True)
    lines: list[str] = []

    class Reporter:
        def row(self, text: str) -> None:
            lines.append(text)
            print(text)

        def table(self, title: str, rows: list[str]) -> None:
            self.row("")
            self.row(f"=== {title} (scale={SCALE}) ===")
            for r in rows:
                self.row(r)

    reporter = Reporter()
    yield reporter
    path = OUT_DIR / "results.txt"
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def stage_breakdown_rows(spans) -> list[str]:
    """Per-stage time/bytes table from a span stream (what ``--trace-out``
    emits); shared by every bench that attaches a tracer."""
    agg = aggregate_spans(spans)
    rows = [f"{'stage':14s} {'calls':>9s} {'seconds':>9s} {'Mbytes':>8s} "
            f"{'MB/s':>8s}"]
    for stage in sorted(agg, key=lambda s: -agg[s]["seconds"]):
        a = agg[stage]
        rate = a["bytes"] / a["seconds"] / 1e6 if a["seconds"] else 0.0
        rows.append(f"{stage:14s} {a['calls']:9d} {a['seconds']:8.3f}s "
                    f"{a['bytes'] / 1e6:8.2f} {rate:8.1f}")
    return rows


@pytest.fixture
def bench_tracer(report, request):
    """An in-memory tracer for one bench.

    Benches attach it to the engines they run (``tracer=bench_tracer``)
    and time whole configurations with ``bench_tracer.span(...)`` — the
    same span machinery ``repro-sensor --trace-out`` streams to disk.  On
    teardown the collected spans are folded into a per-stage time
    breakdown and appended to the results artifact.
    """
    tracer = Tracer(max_spans=2_000_000)
    yield tracer
    stage_spans = [s for s in tracer.spans
                   if not s.stage.startswith("bench.")]
    if stage_spans:
        rows = stage_breakdown_rows(stage_spans)
        if tracer.dropped:
            rows.append(f"(!) {tracer.dropped} spans dropped at the "
                        f"in-memory buffer cap — totals are partial")
        report.table(
            f"Per-stage span breakdown — {request.node.name}", rows)
