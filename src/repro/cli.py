"""Command-line tools.

Installed as console scripts (see ``pyproject.toml``):

- ``repro-sensor``     — run the NIDS over a pcap file and print alerts.
- ``repro-sensord``    — always-on daemon: bounded ingestion, counted
  load shedding, hot template reload, rolling metric windows
  (docs/operations.md).
- ``repro-analyze``    — semantic analysis of a raw binary frame.
- ``repro-asm``        — assemble Intel-syntax x86 to raw bytes.
- ``repro-disasm``     — disassemble raw bytes / hex to a listing.
- ``repro-make-trace`` — synthesize an evaluation pcap (benign + CRII).
- ``repro-scenario``   — validate / run declarative YAML scenarios
  (docs/scenarios.md).

Each ``main`` takes an ``argv`` list for testability and returns a POSIX
exit status (0 ok; 1 for "detections found" in scanning tools, so they
compose in shell pipelines like ``grep``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

__all__ = ["sensor_main", "sensord_main", "analyze_main", "asm_main",
           "disasm_main", "make_trace_main", "scenario_main"]


# ---------------------------------------------------------------------------
# options and helpers shared by repro-sensor and repro-sensord
# ---------------------------------------------------------------------------


def _add_flags(group, record) -> None:
    """One flag per field of options ``record`` that names one."""
    for field in dataclasses.fields(record):
        meta = field.metadata
        if meta["flag"] is None:
            continue
        kind = field.type.partition(" | ")[0]
        if kind == "bool":  # the flags negate: --no-classify
            how = dict(action="store_true")
        elif kind.startswith("tuple"):
            how = dict(action="append", default=[])
        else:
            how = dict(type={"int": int, "float": float}.get(kind),
                       default=field.default)
        if meta["choices"]:
            how["choices"] = meta["choices"]
        group.add_argument(meta["flag"], **how, **meta["cli"])


def _from_flags(parser: argparse.ArgumentParser, args: argparse.Namespace,
                record):
    """The options ``record`` its flags spell; a value the record
    refuses is a usage error naming the flag (exit status 2)."""
    values, flags = {}, {}
    for field in dataclasses.fields(record):
        flag = field.metadata["flag"]
        if flag is None:
            continue
        value = getattr(args, flag[2:].replace("-", "_"))
        if field.type == "bool":  # the flag negates
            value = not value
        elif isinstance(value, list):  # never given: the default
            value = value or field.default
        values[field.name], flags[field.name] = value, flag
    try:
        return record(**values)
    except (TypeError, ValueError) as exc:
        parser.error(f"argument {flags[str(exc).partition(':')[0]]}: {exc}")


def _add_engine_options(parser: argparse.ArgumentParser, *, metrics_out: str,
                        metrics_format: str, stats: str,
                        heartbeat: str) -> None:
    """One flag per :class:`~repro.nids.SensorOptions` field that names
    one, the engine choice and the reporting switches — the same on both
    sensor commands, bar the help strings passed as keywords."""
    from .nids import SensorOptions

    group = parser.add_argument_group("engine options")
    _add_flags(group, SensorOptions)
    group.add_argument("--workers", type=int, default=0, metavar="N",
                       help="analysis worker processes, sharded by flow "
                            "(0/1 = serial; default 0)")
    group.add_argument("--breaker-threshold", type=int, default=3,
                       metavar="N",
                       help="consecutive worker-pool failures before a "
                            "shard's circuit breaker opens (default 3)")
    parser.add_argument("--metrics-out", type=Path, metavar="FILE",
                        help=metrics_out)
    parser.add_argument("--metrics-format", choices=("json", "prom"),
                        default="json", help=metrics_format)
    parser.add_argument("--stats", action="store_true", help=stats)
    parser.add_argument("--heartbeat", type=float, default=0.0,
                        metavar="SECS", help=heartbeat)


def _engine_options(parser: argparse.ArgumentParser,
                    args: argparse.Namespace):
    """The :class:`~repro.nids.SensorOptions` the engine flags spell,
    once the engine-choice flags are in range too."""
    from .nids import SensorOptions

    for flag, least in (("--workers", 0), ("--breaker-threshold", 1),
                        ("--fleet-workers", 0)):  # the last: sensord only
        value = getattr(args, flag[2:].replace("-", "_"), least)
        if value < least:
            parser.error(f"argument {flag}: must be >= {least}, got {value}")
    return _from_flags(parser, args, SensorOptions)


def _build_engine(args: argparse.Namespace, options, **engine_kwargs):
    """The engine the flags choose: a fleet (``repro-sensord`` only),
    the parallel engine for ``--workers`` above 1, else the serial one."""
    from .nids import build_engine

    if getattr(args, "fleet_workers", 0):
        return build_engine("fleet", options, workers=args.fleet_workers,
                            transport=args.fleet_transport)
    if args.workers > 1:
        return build_engine("parallel", options, workers=args.workers,
                            breaker_threshold=args.breaker_threshold,
                            **engine_kwargs)
    return build_engine("serial", options, **engine_kwargs)


def _write_metrics(registry, args: argparse.Namespace) -> None:
    """``--metrics-out`` in the chosen ``--metrics-format``."""
    if args.metrics_out:
        args.metrics_out.write_text(
            registry.to_prometheus() if args.metrics_format == "prom"
            else registry.to_json())


def _pcap_error(exc: Exception, pcap: Path) -> int:
    """Report an unreadable capture; the exit status for bad input."""
    if isinstance(exc, FileNotFoundError):
        print(f"error: no such file: {pcap}", file=sys.stderr)
    else:
        print(f"error: bad pcap: {exc}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# repro-sensor
# ---------------------------------------------------------------------------


def sensor_main(argv: list[str] | None = None) -> int:
    """Run the five-stage NIDS over a pcap capture."""
    parser = argparse.ArgumentParser(
        prog="repro-sensor",
        description="Semantic NIDS over a pcap file (Scheirer & Chuah 2006).",
    )
    parser.add_argument("pcap", type=Path, help="capture to analyze")
    _add_engine_options(
        parser,
        metrics_out="write the metrics registry snapshot here when the "
                    "capture has been processed",
        metrics_format="snapshot format for --metrics-out: json "
                       "(repro.obs/v1) or prom (Prometheus text exposition; "
                       "default json)",
        stats="print pipeline statistics (per-stage timings and "
              "frame-cache hit rate)",
        heartbeat="print a progress heartbeat to stderr every SECS seconds "
                  "of wall time (0 = off)")
    parser.add_argument("--quarantine-out", type=Path, metavar="FILE",
                        help="write inputs whose faults the stage firewall "
                             "contained to this pcap (plus FILE.meta.jsonl)")
    parser.add_argument("--verify", action="store_true",
                        help="emulate matched frames to confirm behaviour")
    parser.add_argument("--report", action="store_true",
                        help="print an incident report at the end")
    parser.add_argument("--trace-out", type=Path, metavar="FILE",
                        help="stream per-stage spans here as JSON Lines "
                             "(one span per stage invocation)")
    args = parser.parse_args(argv)
    options = _engine_options(parser, args)

    from .net.pcap import PcapError, PcapReader
    from .obs import PeriodicSchedule, Tracer
    from .resilience import QuarantineWriter

    tracer = Tracer(path=str(args.trace_out)) if args.trace_out else None
    quarantine = (QuarantineWriter(args.quarantine_out)
                  if args.quarantine_out else None)
    nids = _build_engine(args, options, quarantine=quarantine, tracer=tracer)
    verifier = None
    if args.verify:
        from .core.emuverify import EmulationVerifier

        verifier = EmulationVerifier()

    def emit(alert) -> None:
        line = alert.format()
        if verifier is not None and alert.match is not None:
            frame = _frame_bytes_for(alert)
            if frame is not None:
                verdict = verifier.verify(frame, alert.match)
                line += f"  [{verdict.verdict}: {verdict.reason}]"
        print(line)

    # Deadline-anchored schedule: each beat is timed from the previous
    # deadline, not from "now" after the print, so per-batch processing
    # time does not drift the interval (see PeriodicSchedule).
    beat = PeriodicSchedule(args.heartbeat) if args.heartbeat > 0 else None
    try:
        # salvage=True: a capture whose final record was cut off (sensor
        # host crash, disk-full) still yields its complete prefix; the
        # truncation is counted (repro_pcap_truncated_total) and noted.
        with PcapReader(args.pcap, salvage=True,
                        registry=nids.registry) as reader:
            for pkt in reader:
                for alert in nids.process_packet(pkt):
                    emit(alert)
                if beat is not None and beat.due():
                    print(_heartbeat_line(nids.stats), file=sys.stderr)
            if reader.truncated:
                print(f"warning: capture truncated mid-record; salvaged "
                      f"{reader.records_read} complete record(s)",
                      file=sys.stderr)
        for alert in nids.flush():
            emit(alert)
    except (FileNotFoundError, PcapError) as exc:
        return _pcap_error(exc, args.pcap)
    finally:
        nids.close()
        if tracer is not None:
            tracer.close()
        if quarantine is not None:
            quarantine.close()
            if quarantine.written:
                print(f"quarantined {quarantine.written} input(s) to "
                      f"{args.quarantine_out}", file=sys.stderr)
    if beat is not None:
        print(_heartbeat_line(nids.stats), file=sys.stderr)

    _write_metrics(nids.registry, args)

    if args.report:
        from .nids.report import build_report

        print(build_report(nids).render())
    elif args.stats:
        print(nids.stats.summary())
        print(f"blocked sources: {', '.join(nids.blocklist.addresses()) or 'none'}")
    return 1 if nids.alerts else 0


def _heartbeat_line(stats) -> str:
    """One-line liveness summary (``--heartbeat``)."""
    return (f"heartbeat: packets={stats.packets} "
            f"payload_bytes={stats.payload_bytes} "
            f"payloads={stats.payloads_analyzed} "
            f"frames={stats.frames_analyzed} alerts={stats.alerts} "
            f"analyze={stats.analysis.elapsed:.2f}s")


def _frame_bytes_for(alert) -> bytes | None:
    """Reconstruct frame bytes from the alert's matched instructions."""
    match = alert.match
    if match is None or not match.statements:
        return None
    instructions = [s.ins for s in match.statements if s.ins is not None]
    if not instructions:
        return None
    # The matched statements reference decoded instructions; for dynamic
    # verification we need the containing frame, which the pipeline does
    # not retain — rebuild a best-effort frame from the instruction bytes.
    ordered = sorted({(i.address, i.raw) for i in instructions})
    return b"".join(raw for _, raw in ordered)


# ---------------------------------------------------------------------------
# repro-sensord
# ---------------------------------------------------------------------------


def sensord_main(argv: list[str] | None = None) -> int:
    """Always-on sensor daemon over a (possibly growing) capture."""
    from .nids import DaemonOptions
    from .nids.options import FLEET_TRANSPORTS

    parser = argparse.ArgumentParser(
        prog="repro-sensord",
        description="Always-on semantic NIDS daemon: bounded ingestion, "
                    "counted load shedding, hot template reload, rolling "
                    "metric windows (see docs/operations.md).",
    )
    parser.add_argument("pcap", type=Path, help="capture to ingest")
    parser.add_argument("--follow", action="store_true",
                        help="tail a growing capture (FIFO / live writer): "
                             "end-of-data at a record boundary means 'wait "
                             "for more', not truncation")
    _add_flags(parser, DaemonOptions)
    parser.add_argument("--max-packets", type=int, default=None, metavar="N",
                        help="stop after processing N packets (soak/CI runs)")
    parser.add_argument("--template-set-file", type=Path, metavar="FILE",
                        help="poll FILE between batches; when its contents "
                             "name a different template set, the library is "
                             "hot-reloaded (digest-keyed, no packets lost)")
    _add_engine_options(
        parser,
        metrics_out="write the metrics registry snapshot here at shutdown",
        metrics_format="snapshot format for --metrics-out (default json)",
        stats="print pipeline statistics at shutdown",
        heartbeat="print a liveness line to stderr every SECS seconds "
                  "(deadline-anchored, drift-free; 0 = off)")
    parser.add_argument("--fleet-workers", type=int, default=0, metavar="N",
                        help="scale the WHOLE pipeline out across N sensor "
                             "processes behind a flow-hash dispatcher "
                             "(0 = single sensor; mutually exclusive with "
                             "--workers)")
    parser.add_argument("--fleet-transport",
                        choices=FLEET_TRANSPORTS, default="pickle",
                        help="fleet dispatcher→worker transport: pickle "
                             "ships payload triples; offset ships pcap "
                             "extents (the daemon loop queues record "
                             "headers only and the workers re-read their "
                             "slice of the capture) — see "
                             "docs/architecture.md 'Fleet transport'")
    parser.add_argument("--checkpoint-dir", type=Path, metavar="DIR",
                        help="enable crash safety for whichever engine "
                             "runs: keep versioned checkpoints and a "
                             "write-ahead alert journal under DIR (see "
                             "docs/operations.md)")
    parser.add_argument("--resume", action="store_true",
                        help="rehydrate from --checkpoint-dir after a crash: "
                             "restore counters, replay journaled alerts, "
                             "seek the capture to the checkpointed offset")
    args = parser.parse_args(argv)
    options = _engine_options(parser, args)
    daemon_options = _from_flags(parser, args, DaemonOptions)
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    if args.fleet_workers and args.workers > 1:
        parser.error("--fleet-workers (whole-pipeline scale-out) and "
                     "--workers (in-sensor stage parallelism) are mutually "
                     "exclusive")

    from .net.pcap import PcapError, PcapReader
    from .nids import SensorDaemon
    from .nids.daemon import (IterPacketSource, MetaPacketSource,
                              TailPacketSource)

    # One path for every engine: source → ring → engine → journal →
    # delivery.  Only the engine and what the source yields differ.
    offset_feed = args.fleet_workers >= 1 and args.fleet_transport == "offset"
    nids = _build_engine(args, options)

    template_provider = None
    if args.template_set_file is not None:
        def template_provider() -> str | None:
            try:
                name = args.template_set_file.read_text().strip()
            except OSError:
                return None
            return name or None

    try:
        reader = PcapReader(args.pcap, salvage=True, streaming=args.follow,
                            registry=nids.registry)
    except (FileNotFoundError, PcapError) as exc:
        return _pcap_error(exc, args.pcap)
    if offset_feed:  # record boundaries; the workers re-read the bodies
        source = MetaPacketSource(reader)
    elif args.follow:
        source = TailPacketSource(reader)
    else:
        source = IterPacketSource(iter(reader))

    daemon = SensorDaemon(
        nids, source, daemon_options,
        heartbeat=args.heartbeat,
        heartbeat_out=lambda line: print(line, file=sys.stderr),
        template_provider=template_provider,
        on_alert=lambda alert: print(alert.format()),
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    try:
        stats = daemon.run(max_packets=args.max_packets)
    except PcapError as exc:
        return _pcap_error(exc, args.pcap)
    finally:
        nids.close()
        reader.close()

    print(f"sensord: ingested={stats.ingested} processed={stats.processed} "
          f"shed={stats.shed} queued={stats.queued} "
          f"backpressure={stats.backpressure_waits} alerts={stats.alerts} "
          f"reloads={stats.reloads} uncounted_drops={stats.uncounted_drops}",
          file=sys.stderr)

    _write_metrics(nids.registry, args)
    if args.stats:
        from .nids.stats import NidsStats

        # Every engine's registry holds the pipeline counters (a fleet's:
        # the merged worker deltas), so one view prints them all.
        print(NidsStats(nids.registry).summary())
        if args.fleet_workers:
            fleet = nids.stats
            print(f"fleet: workers={fleet.workers} "
                  f"transport={fleet.transport} "
                  f"dispatched={fleet.dispatched} batches={fleet.batches} "
                  f"deltas_merged={fleet.deltas_merged} "
                  f"ship_bytes={fleet.ship_bytes} "
                  f"watchdog_restarts={fleet.watchdog_restarts}")
    return 1 if stats.alerts else 0


# ---------------------------------------------------------------------------
# repro-analyze
# ---------------------------------------------------------------------------


def analyze_main(argv: list[str] | None = None) -> int:
    """Semantic analysis of a raw binary frame (file or hex string)."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Match semantic templates against a binary frame.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", type=Path, help="binary file to analyze")
    source.add_argument("--hex", help="frame as a hex string")
    parser.add_argument("--extended", action="store_true",
                        help="include extension templates")
    parser.add_argument("--verify", action="store_true",
                        help="emulate to confirm matched behaviour")
    parser.add_argument("--listing", action="store_true",
                        help="print the disassembly listing")
    args = parser.parse_args(argv)

    from .core import SemanticAnalyzer, all_templates, paper_templates
    from .core.emuverify import EmulationVerifier
    from .x86.disasm import disassemble_frame
    from .x86.instruction import format_listing

    data = (args.file.read_bytes() if args.file
            else bytes.fromhex(args.hex.replace(" ", "")))
    templates = all_templates() if args.extended else paper_templates()
    analyzer = SemanticAnalyzer(templates=templates)
    result = analyzer.analyze_frame(data)

    if args.listing:
        instructions, consumed = disassemble_frame(data)
        print(format_listing(instructions))
        print(f"; {consumed}/{len(data)} bytes decoded\n")

    if not result.detected:
        print(f"clean: {result.summary()}")
        return 0
    for match in result.matches:
        print(f"MATCH {match.summary()}")
        if args.verify:
            verdict = EmulationVerifier().verify(data, match)
            print(f"  dynamic: {verdict.verdict} — {verdict.reason}")
    return 1


# ---------------------------------------------------------------------------
# repro-asm / repro-disasm
# ---------------------------------------------------------------------------


def asm_main(argv: list[str] | None = None) -> int:
    """Assemble Intel-syntax source to raw bytes."""
    parser = argparse.ArgumentParser(prog="repro-asm")
    parser.add_argument("source", type=Path, help="assembly source file")
    parser.add_argument("-o", "--output", type=Path,
                        help="write raw bytes here (default: hex to stdout)")
    parser.add_argument("--origin", type=lambda s: int(s, 0), default=0,
                        help="load address for label resolution")
    args = parser.parse_args(argv)

    from .x86.asm import assemble
    from .x86.errors import AssemblerError

    try:
        code = assemble(args.source.read_text(), origin=args.origin)
    except AssemblerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        args.output.write_bytes(code)
        print(f"wrote {len(code)} bytes to {args.output}")
    else:
        print(code.hex())
    return 0


def disasm_main(argv: list[str] | None = None) -> int:
    """Disassemble raw bytes (file or hex) to a listing."""
    parser = argparse.ArgumentParser(prog="repro-disasm")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", type=Path)
    source.add_argument("--hex")
    parser.add_argument("--base", type=lambda s: int(s, 0), default=0)
    parser.add_argument("--strict", action="store_true",
                        help="error on undecodable bytes instead of stopping")
    args = parser.parse_args(argv)

    from .x86.disasm import disassemble, disassemble_frame
    from .x86.errors import DisassemblerError
    from .x86.instruction import format_listing

    data = (args.file.read_bytes() if args.file
            else bytes.fromhex(args.hex.replace(" ", "")))
    try:
        if args.strict:
            instructions = disassemble(data, base=args.base)
            consumed = len(data)
        else:
            instructions, consumed = disassemble_frame(data, base=args.base)
    except DisassemblerError as exc:
        print(f"error at offset {exc.offset}: {exc}", file=sys.stderr)
        return 2
    print(format_listing(instructions))
    if consumed < len(data):
        print(f"; stopped after {consumed}/{len(data)} bytes")
    return 0


# ---------------------------------------------------------------------------
# repro-make-trace
# ---------------------------------------------------------------------------


def make_trace_main(argv: list[str] | None = None) -> int:
    """Synthesize an evaluation pcap (Table 3-style)."""
    parser = argparse.ArgumentParser(prog="repro-make-trace")
    parser.add_argument("output", type=Path, help="pcap to write")
    parser.add_argument("--index", type=int, default=0,
                        help="Table 3 trace index 0-11 (default 0)")
    parser.add_argument("--packets", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--benign-only", action="store_true",
                        help="no CRII injection (a §5.4-style capture)")

    from .net.pcap import write_pcap
    from .traffic import BenignMixGenerator, apply_evasion, build_table3_trace
    from .traffic import evasion_names

    parser.add_argument("--evade", action="append", default=[],
                        choices=evasion_names(), metavar="TRANSFORM",
                        help="rewrite the trace through an evasion transform "
                             f"(repeatable, applied in order; one of: "
                             f"{', '.join(evasion_names())})")
    parser.add_argument("--evade-seed", type=int, default=0,
                        help="seed for evasion randomness (default 0)")
    args = parser.parse_args(argv)

    def evaded(packets):
        for name in args.evade:
            packets = apply_evasion(name, packets, seed=args.evade_seed)
        return packets

    suffix = f" (evaded: {', '.join(args.evade)})" if args.evade else ""
    if args.benign_only:
        gen = BenignMixGenerator(seed=args.seed)
        packets = evaded(gen.generate_packets(max(1, args.packets // 18))
                         [: args.packets])
        write_pcap(args.output, packets)
        print(f"wrote {len(packets)} benign packets to {args.output}{suffix}")
        return 0
    trace = build_table3_trace(args.index, target_packets=args.packets,
                               seed=args.seed)
    packets = evaded(trace.packets)
    write_pcap(args.output, packets)
    print(f"wrote {len(packets)} packets to {args.output} "
          f"({trace.crii_instances} CRII instances from "
          f"{', '.join(trace.crii_sources) or 'none'}){suffix}")
    return 0


# ---------------------------------------------------------------------------
# repro-scenario
# ---------------------------------------------------------------------------


def scenario_main(argv: list[str] | None = None) -> int:
    """Validate, run, or describe declarative YAML scenarios."""
    from .scenario import (ENGINE_KINDS, ScenarioError, check_conflicts,
                           load_scenario)

    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description="Declarative end-to-end experiments from YAML "
                    "scenario files (see docs/scenarios.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check scenario files against the schema")
    p_validate.add_argument("files", type=Path, nargs="+",
                            metavar="SCENARIO")

    p_run = sub.add_parser("run", help="run one scenario end to end")
    p_run.add_argument("file", type=Path, metavar="SCENARIO")
    p_run.add_argument("--result-out", type=Path, metavar="FILE",
                       help="write the machine-readable result "
                            "(repro.scenario-result/v1 JSON) here")
    p_run.add_argument("--override-seed", type=int, default=None,
                       metavar="N",
                       help="run with this master seed instead of the "
                            "file's (reproducibility experiments)")
    p_run.add_argument("--override-engine",
                       choices=ENGINE_KINDS, default=None, metavar="KIND",
                       help="run on this engine kind instead of the "
                            "file's (parity experiments)")
    p_run.add_argument("--print-alerts", action="store_true",
                       help="print the full alert stream, one line per "
                            "alert (the bytes the digest pins)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the per-check report; the exit "
                            "status still reflects the expect: block")

    p_list = sub.add_parser(
        "list", help="summarize scenario files, or with no files, the "
                     "DSL vocabulary")
    p_list.add_argument("files", type=Path, nargs="*", metavar="SCENARIO")
    p_list.add_argument("--keys", action="store_true",
                        help="print the full schema key reference "
                             "instead")
    args = parser.parse_args(argv)

    if args.command == "validate":
        failures = 0
        for path in args.files:
            try:
                spec = load_scenario(path)
            except ScenarioError as exc:
                print(f"{path}: INVALID: {exc}", file=sys.stderr)
                failures += 1
                continue
            print(f"{path}: ok — scenario {spec.name!r} "
                  f"({len(spec.campaigns)} campaign(s), "
                  f"{len(spec.evasion)} evasion transform(s), "
                  f"engine {spec.engine.kind})")
        return 2 if failures else 0

    if args.command == "run":
        from .scenario import run_scenario

        try:
            spec = load_scenario(args.file)
            if args.override_engine is not None:  # as if the file said so
                spec = check_conflicts(dataclasses.replace(
                    spec, engine=dataclasses.replace(
                        spec.engine, kind=args.override_engine)))
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.override_seed is not None:
            spec = dataclasses.replace(spec, seed=args.override_seed)
        result = run_scenario(spec)
        if args.print_alerts:
            for line in result.alert_lines():
                print(line)
        if not args.quiet:
            print(f"scenario {spec.name!r}: {result.packets} packets, "
                  f"{len(result.alerts)} alert(s), engine "
                  f"{spec.engine.kind}, seed {spec.seed}")
            print(f"alert stream sha256: {result.digest}")
            for check in result.checks:
                status = "PASS" if check.passed else "FAIL"
                print(f"  [{status}] {check.check}: expected "
                      f"{check.expected}, got {check.actual}")
            if not result.checks:
                print("  (no expect: block — nothing gated)")
        if args.result_out:
            args.result_out.write_text(result.to_json())
            if not args.quiet:
                print(f"result JSON written to {args.result_out}")
        return 0 if result.passed else 1

    # list
    if args.keys:
        from .scenario import SCHEMA

        width = max(len(k.path) for k in SCHEMA)
        for key in SCHEMA:
            default = ("" if key.default == "—"
                       else f" (default {key.default})")
            print(f"{key.path:{width}s}  {key.type:14s} {key.doc}"
                  f"{default}")
        return 0
    if args.files:
        failures = 0
        for path in args.files:
            try:
                spec = load_scenario(path)
            except ScenarioError as exc:
                print(f"{path}: INVALID: {exc}", file=sys.stderr)
                failures += 1
                continue
            engines = ", ".join(c.engine for c in spec.campaigns) or "none"
            print(f"{path.name}: {spec.name} — {spec.description or '-'} "
                  f"[campaigns: {engines}; engine: {spec.engine.kind}; "
                  f"expect: {'yes' if not spec.expect.empty else 'no'}]")
        return 2 if failures else 0
    from .scenario import CAMPAIGN_ENGINES, CHAOS_KINDS
    from .core.library import TEMPLATE_SETS
    from .traffic import evasion_names

    print("campaign engines: " + ", ".join(sorted(CAMPAIGN_ENGINES)))
    print("evasion transforms: " + ", ".join(evasion_names()))
    print("chaos kinds: " + ", ".join(CHAOS_KINDS))
    print("engine kinds: " + ", ".join(ENGINE_KINDS))
    print("template sets: " + ", ".join(sorted(TEMPLATE_SETS)))
    return 0
