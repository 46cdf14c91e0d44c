"""The only harness module that imports the system under test.

Everything the harness needs from ``repro`` — traffic and attack
generators for the corpus builder, the three gated ways of running the
sensor, the ungated strategy zoo, and the table of per-layer wrap
points — is reached through this file, so a later PR that deletes a
runner, a transport or a ``--no-*`` switch has exactly one harness file
to look at.  The gated paths use only default-constructed
``SemanticNids`` / ``SensorDaemon`` / ``SensorFleet`` / ``PcapReader``
plus the deployment's address plan (:data:`DEPLOYMENT`).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"system under test not found: {SRC}/repro is missing")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.engines import (  # noqa: E402
    EXPLOITS, AdmMutateEngine, CletEngine, MetamorphicEngine,
    build_exploit_request, code_red_ii_request, generic_overflow_request,
    get_shellcode,
)
from repro.net.layers import TCP_ACK, TCP_FIN, TCP_SYN  # noqa: E402
from repro.net.packet import icmp_packet, tcp_packet, udp_packet  # noqa: E402
from repro.net.pcap import PcapReader, PcapWriter  # noqa: E402
from repro.nids import SemanticNids, SensorDaemon, SensorFleet  # noqa: E402
from repro.nids.daemon import IterPacketSource  # noqa: E402
from repro.traffic import BenignMixGenerator, apply_evasion  # noqa: E402

__all__ = [
    "DEPLOYMENT", "EXPLOITS", "AdmMutateEngine", "BenignMixGenerator",
    "CletEngine", "MetamorphicEngine", "PcapReader", "PcapWriter",
    "TCP_ACK", "TCP_FIN", "TCP_SYN", "apply_evasion",
    "build_exploit_request", "code_red_ii_request",
    "generic_overflow_request", "get_shellcode", "icmp_packet",
    "tcp_packet", "udp_packet", "fleet_workers", "serial_sensor",
    "daemon_sensor", "fleet_sensor", "STRATEGIES", "wrap_points",
    "registry_value",
]

#: The monitored site's address plan — a deployment setting, not a tuning
#: option: 10/8 is ours, 10.10.0/24 holds the live servers, the rest of
#: 10/8 is dark.  Everything else about the sensors is left at defaults.
DEPLOYMENT = {"dark_networks": ["10.0.0.0/8"],
              "dark_exclude": ["10.10.0.0/24"]}


def fleet_workers() -> int:
    return min(2, os.cpu_count() or 1)


# -- the three gated strategies ----------------------------------------------


def serial_sensor(classification: bool = True) -> SemanticNids:
    if classification:
        return SemanticNids(**DEPLOYMENT)
    return SemanticNids(classification_enabled=False, **DEPLOYMENT)


def daemon_sensor(packets, checkpoint_dir, sink) -> SensorDaemon:
    """``packets`` is the client's iterator over the capture; the daemon
    pulls from it exactly as ``repro-sensord`` does for a finite pcap."""
    return SensorDaemon(serial_sensor(), IterPacketSource(packets),
                        checkpoint_dir=checkpoint_dir, shed_policy="block",
                        on_alert=sink)


def fleet_sensor(transport: str = "offset") -> SensorFleet:
    return SensorFleet(workers=fleet_workers(), transport=transport,
                       nids_options=DEPLOYMENT)


# -- the ungated strategy zoo (strategy.* rows) -------------------------------
#
# Each takes ``(capture, warm_capture, ready)``: it builds and warms its
# sensor, calls ``ready()`` to start the clock, feeds the capture and
# returns the alert count.


def _zoo_parallel(capture, warm_capture, ready) -> int:
    from repro.nids import ParallelSemanticNids
    nids = ParallelSemanticNids(workers=fleet_workers(), **DEPLOYMENT)
    try:
        ready()
        with PcapReader(capture) as reader:
            return len(nids.process_trace(reader))
    finally:
        nids.close()


def _zoo_fleet(transport: str):
    def run(capture, warm_capture, ready) -> int:
        fleet = fleet_sensor(transport)
        try:
            fleet.process_capture(warm_capture)
            ready()
            return len(fleet.process_capture(capture))
        finally:
            fleet.close()
    return run


def _zoo_daemon_plain(capture, warm_capture, ready) -> int:
    alerts = []
    with PcapReader(capture) as reader:
        daemon = SensorDaemon(serial_sensor(), IterPacketSource(iter(reader)),
                              shed_policy="block", on_alert=alerts.append)
        ready()
        daemon.run()
    return len(alerts)


#: name -> (callable, uses more than one process).  A callable that raises
#: ImportError/AttributeError/TypeError/ValueError before ``ready()`` reads
#: "absent": the class or keyword it needs has been removed.
STRATEGIES = {
    "parallel": (_zoo_parallel, True),
    "fleet-pickle": (_zoo_fleet("pickle"), True),
    "fleet-shm": (_zoo_fleet("shm"), True),
    "daemon-plain": (_zoo_daemon_plain, False),
}


# -- per-layer wrap points ----------------------------------------------------
#
# A hook runs after its wrapped call returns and adds to the tracer's
# tally; hooks exist only for counts the sensor's registry does not keep.


def _pcap_bytes(tally, args, result):
    if result is not None:
        data = getattr(result, "data", None)
        tally["net.pcap.bytes"] += (len(data) if data is not None
                                    else result.caplen)


def _classify_forwarded(tally, args, result):
    if result:
        tally["classify.bytes_forwarded"] += len(args[1].payload)


def _materialized(tally, args, result):
    tally["net.flow.bytes_materialized"] += len(result)


def _disasm_instructions(tally, args, result):
    tally["x86.disasm.instructions"] += len(result[0])


def _lift_instructions(tally, args, result):
    tally["ir.lift.instructions"] += len(args[0])


def _matcher(tally, args, result):
    tally["core.matcher.template_frame_pairs"] += len(args[1])
    if result:
        tally["core.matcher.matched_calls"] += 1


def _checkpoint_bytes(tally, args, result):
    tally["resilience.checkpoint.bytes"] += os.path.getsize(result)


def _ring_offer(tally, args, result):
    if result:
        tally.ring_in[id(args[1])] = perf_counter()


def _ring_take(tally, args, result):
    if result is not None:
        t_in = tally.ring_in.pop(id(result), None)
        if t_in is not None:
            tally.ring_waits.append(perf_counter() - t_in)


#: (layer, module, class or None, attribute, hook).  Resolution is
#: tolerant: a point whose module, class or attribute no longer exists is
#: skipped, and its layer simply reports fewer calls.
_POINTS = [
    ("net.pcap", "repro.net.pcap", "PcapReader", "poll", _pcap_bytes),
    ("net.pcap", "repro.net.pcap", "PcapReader", "poll_meta", _pcap_bytes),
    ("net.packet", "repro.net.packet", "Packet", "decode", None),
    ("net.defrag", "repro.net.defrag", "IpDefragmenter", "feed", None),
    ("classify", "repro.classify.classifier", "TrafficClassifier",
     "classify", _classify_forwarded),
    ("net.flow", "repro.net.flow", "StreamReassembler", "feed", None),
    ("net.flow", "repro.net.flow", "Stream", "data", _materialized),
    ("net.flow", "repro.net.flow", "Stream", "contiguous_length", None),
    ("extract", "repro.extract.frames", "BinaryExtractor", "extract", None),
    ("fastpath", "repro.fastpath.anchors", "CompiledPrefilter", "scan", None),
    ("x86.disasm", "repro.x86.disasm", None, "disassemble_frame",
     _disasm_instructions),
    ("ir.lift", "repro.core.matcher", None, "prepare_trace",
     _lift_instructions),
    ("core.matcher", "repro.core.matcher", "MatchEngine", "match_all",
     _matcher),
    ("core.analyzer", "repro.core.analyzer", "SemanticAnalyzer",
     "analyze_frame", None),
    ("nids.pipeline", "repro.nids.pipeline", "SemanticNids",
     "process_packet", None),
    ("nids.pipeline", "repro.nids.pipeline", "SemanticNids", "flush", None),
    ("nids.daemon", "repro.resilience.shedder", "BoundedRing", "offer",
     _ring_offer),
    ("nids.daemon", "repro.resilience.shedder", "BoundedRing", "take",
     _ring_take),
    ("nids.daemon", "repro.nids.daemon", "SensorDaemon", "run", None),
    ("resilience.journal", "repro.resilience.journal", "AlertJournal",
     "append", None),
    ("resilience.journal", "repro.resilience.journal", "AlertJournal",
     "sync", None),
    ("resilience.delivery", "repro.resilience.delivery", "DurableDelivery",
     "deliver", None),
    ("resilience.checkpoint", "repro.resilience.checkpoint",
     "CheckpointStore", "save", _checkpoint_bytes),
    ("nids.fleet", "repro.nids.fleet", "SensorFleet", "process_capture",
     None),
    ("nids.fleet", "repro.nids.fleet", "SensorFleet", "flush", None),
]


def wrap_points() -> list[tuple]:
    """Resolved wrap points: ``(layer, point, owners, attr, hook)``.

    ``owners`` lists every object holding the attribute: the class, or —
    for a module-level function — every ``repro`` module that imported
    it by name (``analyzer`` calls ``disassemble_frame`` through its own
    global, so patching only the defining module would miss the call).
    """
    import importlib

    out = []
    for layer, module, cls, attr, hook in _POINTS:
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            continue
        owners = [owner]
        if cls is None:
            owners = [mod for name, mod in list(sys.modules.items())
                      if name.startswith("repro") and mod is not None
                      and vars(mod).get(attr) is target]
        out.append((layer, f"{cls or module.rsplit('.', 1)[1]}.{attr}",
                    owners, attr, hook))
    return out


def registry_value(registry, name: str, **labels) -> float:
    """A counter's value from a sensor registry, summed over label sets
    when ``labels`` is empty; 0 when the sensor no longer keeps it."""
    total = 0.0
    for metric in registry.metrics():
        if metric.name == name and hasattr(metric, "value") and all(
                metric.labels.get(k) == v for k, v in labels.items()):
            total += metric.value
    return total
