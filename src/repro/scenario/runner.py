"""Scenario execution: one spec in, one deterministic result out.

The runner composes the repository's building blocks behind a single
seeded clock:

1. **trace assembly** — benign mix (:class:`~repro.traffic.BenignMixGenerator`),
   background radiation, and each campaign's packets are generated on
   per-section :class:`~repro.net.wire.Wire` clocks, merged, and
   stable-sorted by timestamp;
2. **evasion** — the merged trace is rewritten through each transform in
   order (:func:`~repro.traffic.apply_evasion`);
3. **chaos** — stall payloads ride in the trace, ``truncate-capture``
   round-trips the trace through a real (truncated) pcap with salvage,
   ``decode-faults`` hooks the engine's classifier via the seeded
   :class:`~repro.resilience.FaultInjector`;
4. **analysis** — the selected engine (serial / parallel / daemon /
   fleet) processes the trace;
5. **assertion** — the ``expect:`` block is evaluated against the alert
   stream and the metrics registry, and a machine-readable result
   (``repro.scenario-result/v1``) is produced.

Every random choice descends from ``spec.seed`` through
:func:`derive_seed`, so the same YAML and seed reproduce a byte-identical
alert stream — and because the parallel engine's merge is
submission-ordered, the stream is also identical across ``serial`` and
``parallel`` engine kinds (the differential suites pin this).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..net.packet import Packet, udp_packet
from ..net.wire import Host, Wire
from .schema import (
    CampaignSpec, ChaosSpec, EngineSpec, ExpectSpec, ScenarioError,
    ScenarioSpec,
)

__all__ = ["ScenarioResult", "CheckResult", "RESULT_SCHEMA",
           "build_trace", "derive_seed", "render_alert_stream",
           "run_scenario"]

RESULT_SCHEMA = "repro.scenario-result/v1"


def derive_seed(master: int, label: str) -> int:
    """A stable sub-seed for ``label`` under ``master``.

    sha256-based (not :func:`hash`, which is salted per interpreter), so
    a scenario's derived seeds are identical across runs and machines.
    """
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# trace assembly
# ---------------------------------------------------------------------------


def _captured_wire(start_time: float) -> tuple[Wire, list[Packet]]:
    out: list[Packet] = []
    wire = Wire(start_time=start_time)
    wire.attach(out.append)
    return wire, out


def _benign_packets(spec: ScenarioSpec) -> list[Packet]:
    traffic = spec.traffic
    if traffic is None:
        return []
    from ..traffic import BenignMixGenerator, RadiationGenerator

    seed = (traffic.seed if traffic.seed is not None
            else derive_seed(spec.seed, "traffic"))
    gen = BenignMixGenerator(seed=seed, client_net=traffic.client_net,
                             server_net=traffic.server_net,
                             start_time=traffic.start_time,
                             mean_gap=traffic.mean_gap)
    packets = (gen.generate_packets(traffic.conversations)
               if traffic.conversations else [])
    if traffic.radiation:
        monitored = traffic.server_net.rsplit(".", 1)[0] + "."
        radiation = RadiationGenerator(
            seed=derive_seed(spec.seed, "radiation"),
            monitored_net=monitored)
        packets.extend(radiation.mixed(traffic.radiation,
                                       base_time=traffic.start_time))
    return packets


def _campaign_packets(spec: CampaignSpec, index: int,
                      master_seed: int) -> list[Packet]:
    seed = (spec.seed if spec.seed is not None
            else derive_seed(master_seed, f"campaigns[{index}]"))
    builder = _CAMPAIGN_BUILDERS[spec.engine]
    return builder(spec, index, seed)


def _codered_campaign(spec: CampaignSpec, index: int,
                      seed: int) -> list[Packet]:
    from ..engines import CodeRedHost

    source = spec.source or f"10.{30 + index}.3.7"
    target = spec.target or "10.10.0.7"
    worm = CodeRedHost(ip=source, seed=seed)
    out = worm.scan_packets(count=spec.scans, base_time=spec.at)
    for k in range(spec.count or 1):
        out.extend(worm.exploit_packets(target,
                                        base_time=spec.at + 1.0 + 0.5 * k))
    return out


def _mailworm_campaign(spec: CampaignSpec, index: int,
                       seed: int) -> list[Packet]:
    from ..engines import MailWormHost

    wire, out = _captured_wire(spec.at)
    worm = MailWormHost(ip=spec.source or "192.168.2.7", seed=seed,
                        relay_net=spec.relay_net)
    worm.burst(wire, count=spec.count or 12)
    return out


def _netsky_campaign(spec: CampaignSpec, index: int,
                     seed: int) -> list[Packet]:
    """The worm body served over HTTP: a victim downloads the dropper
    (polymorphic xor stub + Netsky-style body) from an infected host."""
    from ..engines import build_worm_attachment

    wire, out = _captured_wire(spec.at)
    source = spec.source or f"10.{60 + index}.2.2"
    target = spec.target or "192.168.1.50"
    victim = Host(ip=target, wire=wire)
    for k in range(spec.count or 1):
        body = build_worm_attachment(seed=seed + k, body_size=spec.size)
        session = victim.open_tcp(source, 80)
        session.send(b"GET /update.exe HTTP/1.0\r\n\r\n")
        session.reply(
            b"HTTP/1.0 200 OK\r\nContent-Type: "
            b"application/octet-stream\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)
        session.close()
    return out


def _polymorphic_campaign(spec: CampaignSpec, index: int,
                          seed: int) -> list[Packet]:
    """ADMmutate / Clet / metamorphic instances fired as §5.2's generic
    overflow exploit conversations."""
    from ..engines import (
        AdmMutateEngine, CletEngine, MetamorphicEngine, get_shellcode,
    )
    from ..engines.exploit import generic_overflow_request

    wire, out = _captured_wire(spec.at)
    attacker = Host(ip=spec.source or f"203.0.113.{10 + index}", wire=wire)
    target = spec.target or "10.10.0.7"
    shellcode = get_shellcode(spec.shellcode)
    count = spec.count or 1
    if spec.engine == "admmutate":
        engine = AdmMutateEngine(seed=seed)
        instances = (engine.mutate(shellcode.assemble(), instance=i,
                                   family=spec.family).data
                     for i in range(count))
    elif spec.engine == "clet":
        engine = CletEngine(seed=seed)
        instances = (engine.mutate(shellcode.assemble(), instance=i).data
                     for i in range(count))
    else:  # metamorph: the payload itself is rewritten, no decoder
        engine = MetamorphicEngine(seed=seed,
                                   junk_probability=spec.junk_probability)
        instances = (engine.mutate_source(shellcode.source, instance=i).data
                     for i in range(count))
    for i, payload in enumerate(instances):
        session = attacker.open_tcp(target, 80)
        session.send(generic_overflow_request(payload, seed=i))
        session.close()
    return out


def _exploits_campaign(spec: CampaignSpec, index: int,
                       seed: int) -> list[Packet]:
    from ..engines import ExploitGenerator

    wire, out = _captured_wire(spec.at)
    gen = ExploitGenerator(wire,
                           attacker_ip=spec.source or f"203.0.113.{10 + index}")
    gen.fire_all(spec.target or "10.10.0.7", seed=seed)
    return out


_CAMPAIGN_BUILDERS = {
    "codered": _codered_campaign,
    "mailworm": _mailworm_campaign,
    "netsky": _netsky_campaign,
    "admmutate": _polymorphic_campaign,
    "clet": _polymorphic_campaign,
    "metamorph": _polymorphic_campaign,
    "exploits": _exploits_campaign,
}


def _stall_packets(chaos: ChaosSpec) -> list[Packet]:
    from ..resilience.chaos import build_stall_payload

    payload = build_stall_payload(instructions=chaos.instructions)
    return [udp_packet(chaos.source, chaos.target, 6000 + k, 69,
                       payload=payload, timestamp=chaos.at + 0.01 * k)
            for k in range(chaos.count)]


def build_trace(spec: ScenarioSpec) -> list[Packet]:
    """Assemble the scenario's packet trace, deterministically.

    Benign mix, campaigns, and stall payloads are generated on their own
    clocks, merged, stable-sorted by timestamp, then rewritten through
    the evasion transforms in order.  ``truncate-capture`` chaos (a
    byte-level fault) additionally round-trips the result through a real
    truncated pcap with salvage, exactly what a crashed sensor host
    leaves behind.
    """
    packets = _benign_packets(spec)
    for i, campaign in enumerate(spec.campaigns):
        packets.extend(_campaign_packets(campaign, i, spec.seed))
    for chaos in spec.chaos:
        if chaos.kind == "stall-payload":
            packets.extend(_stall_packets(chaos))
    packets.sort(key=lambda p: p.timestamp)

    from ..traffic import apply_evasion

    for i, evasion in enumerate(spec.evasion):
        seed = (evasion.seed if evasion.seed is not None
                else derive_seed(spec.seed, f"evasion[{i}]"))
        packets = apply_evasion(evasion.transform, packets, seed=seed)

    for chaos in spec.chaos:
        if chaos.kind == "truncate-capture":
            packets = _truncated_roundtrip(packets, chaos.drop_bytes)
    return packets


def _truncated_roundtrip(packets: list[Packet], drop: int) -> list[Packet]:
    from ..net.pcap import PcapReader, write_pcap
    from ..resilience.chaos import truncate_capture

    if not packets:
        return packets
    with tempfile.TemporaryDirectory() as tmp:
        whole = Path(tmp) / "scenario.pcap"
        cut = Path(tmp) / "scenario-cut.pcap"
        write_pcap(whole, packets)
        truncate_capture(whole, cut, drop=drop)
        with PcapReader(cut, salvage=True) as reader:
            return list(reader)


# ---------------------------------------------------------------------------
# engine execution
# ---------------------------------------------------------------------------


def _engine(engine: EngineSpec):
    """The engine a scenario names; ``daemon`` is the serial engine
    under :class:`~repro.nids.SensorDaemon`."""
    from ..nids import build_engine

    return build_engine("serial" if engine.kind == "daemon" else engine.kind,
                        engine.options, workers=engine.workers)


def _run_engine(spec: ScenarioSpec, packets: list[Packet]):
    """Process ``packets`` through the configured engine.

    Returns ``(alerts, registry, recovery_report)`` — the report is
    ``None`` unless a ``crash`` chaos entry routed the run through the
    crash/restart harness.
    """
    from ..nids import SensorDaemon
    from ..nids.daemon import IterPacketSource

    engine: EngineSpec = spec.engine
    fault_chaos = [c for c in spec.chaos if c.kind == "decode-faults"]
    crash_chaos = [c for c in spec.chaos if c.kind == "crash"]

    if crash_chaos:
        return _run_crash_engine(spec, packets, crash_chaos[0])

    nids = _engine(engine)
    with ExitStack() as stack:
        stack.callback(nids.close)
        for chaos in fault_chaos:  # validation keeps these off a fleet
            stack.enter_context(_decode_faults(nids, chaos, spec.seed,
                                               len(packets)))
        if engine.kind == "daemon":
            # The daemon hands alerts on and the engine lets them go.
            delivered: list = []
            SensorDaemon(nids, IterPacketSource(iter(packets)),
                         engine.daemon, on_alert=delivered.append).run()
            return delivered, nids.registry, None
        nids.process_trace(packets)
    return nids.alerts, nids.registry, None


def _run_crash_engine(spec: ScenarioSpec, packets: list[Packet],
                      chaos: ChaosSpec):
    """Route a ``crash`` scenario through the crash/restart harness
    (:mod:`repro.resilience.recovery`): a reference run pins the
    uninterrupted stream, then the kill schedule runs against a fresh
    checkpoint directory and the recovered stream is compared.  Every
    engine kind validation allows here (daemon, parallel, fleet) runs
    under the daemon, the one durability layer."""
    from ..nids.daemon import IterPacketSource
    from ..resilience.recovery import (
        run_daemon_reference, run_daemon_with_crashes,
    )

    engine: EngineSpec = spec.engine
    run = dict(nids_factory=lambda: _engine(engine), options=engine.daemon)

    def source():
        return IterPacketSource(packets)

    with tempfile.TemporaryDirectory() as tmp:
        reference, _ = run_daemon_reference(source, **run)
        report = run_daemon_with_crashes(
            source, checkpoint_dir=tmp, kills=chaos.kills,
            kill_kind=chaos.kill_kind,
            checkpoint_interval=chaos.checkpoint_interval,
            engine=engine.kind, **run)
        report.reference_lines = reference
    return report.alerts, report.registry, report


def _decode_faults(nids, chaos: ChaosSpec, master_seed: int,
                   population: int):
    from ..resilience.chaos import FaultInjector

    seed = (chaos.seed if chaos.seed is not None
            else derive_seed(master_seed, "chaos.decode-faults"))
    injector = FaultInjector(seed=seed)
    chosen = injector.pick(max(population, 1), chaos.count)
    return injector.decode_faults(nids,
                                  lambda index, pkt: index in chosen)


# ---------------------------------------------------------------------------
# expectation checking + result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One evaluated ``expect:`` assertion."""

    check: str
    expected: str
    actual: str
    passed: bool

    def as_dict(self) -> dict:
        return {"check": self.check, "expected": self.expected,
                "actual": self.actual, "passed": self.passed}


def render_alert_stream(alerts) -> bytes:
    """The canonical alert-stream bytes the determinism contract pins:
    one :meth:`~repro.nids.Alert.format` line per alert, newline-joined."""
    return b"".join(a.format().encode() + b"\n" for a in alerts)


def _metric_total(registry, name: str) -> float | None:
    """Sum of a metric's value over all label sets (None if absent)."""
    total, seen = 0.0, False
    for metric in registry.metrics():
        if metric.name != name:
            continue
        seen = True
        if hasattr(metric, "value"):
            total += metric.value
        elif hasattr(metric, "count"):  # histogram: its observation count
            total += metric.count
    return total if seen else None


def _counter_totals(registry) -> dict[str, float]:
    totals: dict[str, float] = {}
    for metric in registry.metrics():
        value = getattr(metric, "value", None)
        if value is None:
            continue
        totals[metric.name] = totals.get(metric.name, 0.0) + value
    return {name: totals[name] for name in sorted(totals)}


def _evaluate_recovery(expect: ExpectSpec, report) -> list[CheckResult]:
    """``expect.recovery`` assertions against a crash-run report."""
    if expect.recovery is None:
        return []
    rec = expect.recovery
    checks: list[CheckResult] = []
    if rec.parity:
        checks.append(CheckResult(
            "recovery.parity", "byte-identical to reference",
            "identical" if report.parity else
            f"divergent ({len(report.alert_lines)} vs "
            f"{len(report.reference_lines)} alerts)",
            report.parity))
    for name, bound, actual in (
            ("restarts", rec.restarts, report.crashes),
            ("replayed", rec.replayed, report.replayed),
            ("deduped", rec.deduped, report.deduped)):
        if bound is not None:
            checks.append(CheckResult(
                f"recovery.{name}", bound.describe(), str(actual),
                bound.check(actual)))
    return checks


def _evaluate(expect: ExpectSpec, alerts, registry,
              digest: str) -> list[CheckResult]:
    checks: list[CheckResult] = []
    by_template: dict[str, int] = {}
    for alert in alerts:
        by_template[alert.template] = by_template.get(alert.template, 0) + 1
    if expect.total is not None:
        checks.append(CheckResult(
            "alerts.total", expect.total.describe(), str(len(alerts)),
            expect.total.check(len(alerts))))
    for name in sorted(expect.templates):
        bound = expect.templates[name]
        actual = by_template.get(name, 0)
        checks.append(CheckResult(
            f"alerts.templates.{name}", bound.describe(), str(actual),
            bound.check(actual)))
    if expect.sources is not None:
        actual_sources = {a.source for a in alerts}
        checks.append(CheckResult(
            "alerts.sources",
            "{" + ", ".join(sorted(expect.sources)) + "}",
            "{" + ", ".join(sorted(actual_sources)) + "}",
            actual_sources == set(expect.sources)))
    for name in sorted(expect.metrics):
        bound = expect.metrics[name]
        actual = _metric_total(registry, name)
        checks.append(CheckResult(
            f"metrics.{name}", bound.describe(),
            "absent" if actual is None else f"{actual:g}",
            actual is not None and bound.check(actual)))
    if expect.digest is not None:
        checks.append(CheckResult(
            "digest", expect.digest, digest, digest == expect.digest))
    return checks


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    packets: int
    alerts: list = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    digest: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    #: crash-run report (repro.resilience.recovery.RecoveryReport) when
    #: the scenario has a ``crash`` chaos entry, else None
    recovery: Any = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def alert_lines(self) -> list[str]:
        return [a.format() for a in self.alerts]

    def as_dict(self) -> dict[str, Any]:
        by_template: dict[str, int] = {}
        for alert in self.alerts:
            by_template[alert.template] = by_template.get(alert.template,
                                                          0) + 1
        return {
            "schema": RESULT_SCHEMA,
            "scenario": self.spec.name,
            "description": self.spec.description,
            "seed": self.spec.seed,
            "engine": {
                "kind": self.spec.engine.kind,
                "workers": (self.spec.engine.workers
                            if self.spec.engine.kind in ("parallel", "fleet")
                            else 1),
                "template_set": self.spec.engine.options.template_set,
            },
            "packets": self.packets,
            "alerts": {
                "total": len(self.alerts),
                "by_template": dict(sorted(by_template.items())),
                "sources": sorted({a.source for a in self.alerts}),
            },
            "alert_stream_sha256": self.digest,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "metrics": self.metrics,
            **({"recovery": self.recovery.as_dict()}
               if self.recovery is not None else {}),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one validated scenario end to end."""
    packets = build_trace(spec)
    alerts, registry, recovery = _run_engine(spec, packets)
    digest = hashlib.sha256(render_alert_stream(alerts)).hexdigest()
    checks = _evaluate(spec.expect, alerts, registry, digest)
    if recovery is not None:
        checks.extend(_evaluate_recovery(spec.expect, recovery))
    return ScenarioResult(
        spec=spec,
        packets=len(packets),
        alerts=list(alerts),
        checks=checks,
        digest=digest,
        metrics=_counter_totals(registry),
        recovery=recovery,
    )
