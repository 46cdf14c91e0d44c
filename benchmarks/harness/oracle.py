"""The verdict oracle: did the sensor say the right thing about every
labelled flow, and did every way of running it say the same thing?

An *operation* is one labelled flow of a capture.  It fails when

- it is an attack flow and no template alert names one of its packets;
- it is a benign flow and any alert names one of its packets;
- the sensor lost track of packets (shed, uncounted, or fewer seen than
  the capture holds) — charged to the pseudo-flow ``(accounting)``;
- its alerts differ from the serial sensor's alerts on the same capture
  (daemon and fleet workloads), or between repetitions.

``verdict_error_share`` is failed / attempted and must be 0.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

__all__ = ["alert_digest", "judge", "diff_flows"]


def alert_digest(alerts: list[list]) -> str:
    """Order-free digest of ``(timestamp_us, src, dst, template)`` keys:
    the fleet emits flush-time alerts in worker order, so only the
    multiset is comparable across strategies."""
    blob = json.dumps(sorted(alerts), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def judge(capture, alerts: list[list], counters: dict) -> dict[str, str]:
    """Failed operations of one repetition: ``{flow: reason}``."""
    by_flow: dict[int, list[str]] = {}
    failures: dict[str, str] = {}
    for ts_us, src, dst, template in alerts:
        flow = capture.flow_at(ts_us)
        if flow is None:
            failures[f"(stray alert @{ts_us} {src}>{dst})"] = (
                f"{template}: timestamp names no record of the capture")
        else:
            by_flow.setdefault(flow, []).append(template)
    for flow, label in enumerate(capture.labels):
        templates = by_flow.get(flow, ())
        if label.startswith("attack:"):
            if not any(not t.startswith("resilience.") for t in templates):
                failures[capture.flows[flow]] = f"missed {label}"
        elif templates:
            failures[capture.flows[flow]] = (
                f"alert on benign flow: {', '.join(sorted(set(templates)))}")
    lost = (counters["shed"] + counters["uncounted"]
            + capture.packets - counters["packets_seen"])
    if lost:
        failures["(accounting)"] = (
            f"{counters['shed']} shed, {counters['uncounted']} uncounted, "
            f"{counters['packets_seen']}/{capture.packets} packets seen")
    if "ingested" in counters and counters["ingested"] != (
            counters["packets_seen"] + counters["shed"] + counters["queued"]):
        failures["(daemon identity)"] = (
            "ingested != processed + shed + queued: " + json.dumps(counters))
    return failures


def diff_flows(capture, alerts: list[list], reference: list[list],
               what: str) -> dict[str, str]:
    """Flows whose alerts differ between two runs of one capture."""
    ours = Counter(map(tuple, alerts))
    theirs = Counter(map(tuple, reference))
    failures = {}
    for key in (ours - theirs) + (theirs - ours):
        flow = capture.flow_at(key[0])
        name = capture.flows[flow] if flow is not None else f"(@{key[0]})"
        failures[name] = f"alerts differ from {what}: {key[3]}"
    return failures
