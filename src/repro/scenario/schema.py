"""The scenario DSL schema: typed specs, defaulting, precise errors.

A scenario file is a YAML mapping that composes the repository's building
blocks — benign traffic (:mod:`repro.traffic`), attack campaigns
(:mod:`repro.engines`), evasion transforms
(:mod:`repro.traffic.evasion`), chaos injection
(:mod:`repro.resilience.chaos`), an analysis engine (:mod:`repro.nids`)
— plus an ``expect:`` block asserting what the run must produce.  This
module owns the *shape* of that mapping.  Each section is a record
(:class:`TrafficSpec`, :class:`CampaignSpec`, :class:`EvasionSpec`,
:class:`ChaosSpec`; ``engine.options`` is
:class:`repro.nids.SensorOptions` and ``engine.daemon``
:class:`repro.nids.DaemonOptions`) whose fields declare a key once —
type, default, range, description, and which campaign engines or chaos
kinds take it; the rows of :data:`SCHEMA` are generated from the fields,
one routine (:func:`_section`) builds any record from its mapping, and
the rules that span sections are :func:`check_conflicts`.

Two consumers read :data:`SCHEMA` besides the validator:

- ``docs/scenarios.md`` documents exactly these keys, and
  ``tools/check_docs.py`` regenerates its table from :data:`SCHEMA` and
  diffs the two, so the DSL reference cannot drift;
- ``repro-scenario list --keys`` prints the same table.

Validation raises :class:`ScenarioError` with the YAML path of the
offending key (``campaigns[1].engine: unknown value 'cletx'``) — one
actionable line, never a traceback, which is what the CLI prints.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields, replace
from typing import Any

from ..core.library import TEMPLATE_SETS, resolve_template_set
from ..nids.options import (DaemonOptions, Record, SensorOptions, Vocabulary,
                            _checked, _opt)
from ..resilience.recovery import KILL_KINDS

__all__ = [
    "SCHEMA", "SchemaKey", "ScenarioError",
    "ScenarioSpec", "TrafficSpec", "CampaignSpec", "EvasionSpec",
    "ChaosSpec", "EngineSpec", "ExpectSpec", "RecoverySpec", "Bound",
    "CAMPAIGN_ENGINES", "CHAOS_KINDS", "ENGINE_KINDS", "KILL_KINDS",
    "check_conflicts", "schema_keys", "validate",
]

MAX_SEED = 2**32 - 1
ENGINE_KINDS = ("serial", "parallel", "daemon", "fleet")

#: what ``engine.daemon`` starts from: the daemon's own defaults, but
#: lossless — shedding depends on ring timing, and a scenario must be
#: deterministic unless it says otherwise.
SCENARIO_DAEMON = DaemonOptions(shed_policy="block")

#: degraded-alert templates the firewall can emit; legal in
#: ``expect.alerts.templates`` alongside the semantic template names.
DEGRADED_TEMPLATES = frozenset({
    "resilience.stage-fault", "resilience.deadline-exceeded",
})


class ScenarioError(ValueError):
    """A scenario file is malformed.  ``path`` names the YAML location."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


# ---------------------------------------------------------------------------
# the sections: one record each, one field per key
# ---------------------------------------------------------------------------


def _key(default, doc: str, bound: str = "", **how):
    """A scenario-file key: an option (:func:`repro.nids.options._opt`)
    that no flag sets."""
    return _opt(default, doc, bound, scenario=True, **how)


def _seed(doc: str, **how):
    return _key(None, doc, f"0 <= seed <= {MAX_SEED}", **how)


@dataclass(frozen=True)
class TrafficSpec(Record):
    conversations: int = _key(
        0, "Benign conversations to generate (HTTP/DNS/SMTP/ICMP mix).",
        ">= 0")
    seed: int | None = _seed("Mix seed; null derives from the master seed.")
    client_net: str = _key("192.168.0.0/22", "Client address pool (CIDR).")
    server_net: str = _key("10.10.0.0/24", "Server address pool (CIDR).")
    start_time: float = _key(
        0.0, "Wire clock at the first conversation.", ">= 0")
    mean_gap: float = _key(
        0.02, "Mean inter-conversation gap, seconds.", "> 0")
    radiation: int = _key(
        0, "Background-radiation packets (backscatter, worm residue) "
           "mixed in.", ">= 0")


_POLYMORPHIC = ("admmutate", "clet", "metamorph")


@dataclass(frozen=True)
class CampaignSpec(Record):
    """One campaign; ``engine`` picks which of the later keys apply.
    ``source`` / ``target`` / ``count`` left unset are chosen by the
    engine's builder in :mod:`repro.scenario.runner`."""

    engine: str = _key(
        "", "Attack engine.", required=True,
        choices=("admmutate", "clet", "codered", "exploits", "mailworm",
                 "metamorph", "netsky"))
    at: float = _key(
        1.0, "Campaign start time on the shared clock, seconds.", ">= 0")
    seed: int | None = _seed(
        "Campaign seed; null derives from the master seed and the "
        "campaign index.")
    source: str | None = _key(
        None, "Attacker / infected host address.", unset="engine-specific")
    target: str | None = _key(
        None, "Victim / honeypot address (ignored by mailworm, which picks "
              "relays from relay_net).", unset="engine-specific")
    count: int | None = _key(
        None, "Instances: exploit conversations (codered, admmutate, clet, "
              "metamorph, netsky) or SMTP relays (mailworm).", ">= 1",
        unset="engine-specific",
        only=("codered", "mailworm", "netsky", *_POLYMORPHIC))
    scans: int = _key(
        40, "codered only: SYN probes in the scan burst before the "
            "exploit.", ">= 0", only=("codered",))
    relay_net: str = _key(
        "10.10.1.", "mailworm only: relay subnet prefix.",
        only=("mailworm",))
    size: int = _key(
        22 * 1024, "netsky only: worm body size in bytes.", ">= 1024",
        only=("netsky",))
    shellcode: str = _key(
        "classic-execve", "admmutate / clet / metamorph: payload from the "
                          "shellcode corpus.", only=_POLYMORPHIC,
        choices=Vocabulary("a repro.engines.shellcode_names() entry",
                           "repro.engines.shellcode_names"))
    family: str | None = _key(
        None, "admmutate only: force a decoder family.", only=("admmutate",),
        choices=Vocabulary('one of: "xor", "mov-or-and-not"',
                           "repro.engines.admmutate.DECODER_FAMILIES"))
    junk_probability: float = _key(
        0.35, "metamorph only: junk-insertion probability.", "0 <= p <= 1",
        only=("metamorph",))


@dataclass(frozen=True)
class EvasionSpec(Record):
    transform: str = _key(
        "", "Transform name.", required=True,
        choices=Vocabulary("a repro.traffic.evasion_names() entry",
                           "repro.traffic.evasion_names"))
    seed: int | None = _seed(
        "Transform seed; null derives from the master seed and the "
        "transform index.")


@dataclass(frozen=True)
class ChaosSpec(Record):
    """One fault; ``kind`` picks which of the later keys apply."""

    kind: str = _key(
        "", "Fault kind.", required=True,
        choices=("stall-payload", "decode-faults", "truncate-capture",
                 "crash"))
    at: float = _key(
        1.0, "stall-payload only: injection time.", ">= 0",
        only=("stall-payload",))
    instructions: int = _key(
        40_000, "stall-payload only: instructions the stall body decodes "
                "to.", ">= 1000", only=("stall-payload",))
    source: str = _key(
        "10.66.6.6", "stall-payload only: sender of the stall datagram.",
        only=("stall-payload",))
    target: str = _key(
        "10.10.0.9", "stall-payload only: destination of the stall "
                     "datagram.", only=("stall-payload",))
    count: int = _key(
        1, "decode-faults: packets whose classify call raises; "
           "stall-payload: stall datagrams injected.", ">= 1",
        only=("decode-faults", "stall-payload"))
    seed: int | None = _seed(
        "decode-faults only: injector seed; null derives from the master "
        "seed.", only=("decode-faults",))
    drop_bytes: int = _key(
        8, "truncate-capture only: bytes cut off the end of the written "
           "capture (the run then goes through a real pcap round-trip with "
           "salvage).", ">= 1", only=("truncate-capture",))
    kills: tuple[int, ...] = _key(
        (), "crash only: global processed-packet marks where the process is "
            "killed; each kill abandons the incarnation and the next one "
            "resumes from the checkpoints.", ">= 0", required=True,
        only=("crash",))
    kill_kind: str = _key(
        "mid-batch", "crash only: the seam the kill lands on.",
        choices=KILL_KINDS, only=("crash",))
    checkpoint_interval: int = _key(
        100, "crash only: processed packets between checkpoints.", ">= 1",
        only=("crash",))


CAMPAIGN_ENGINES = fields(CampaignSpec)[0].metadata["choices"]
CHAOS_KINDS = fields(ChaosSpec)[0].metadata["choices"]


@dataclass(frozen=True)
class EngineSpec:
    kind: str = "serial"
    workers: int = 2
    #: the engine's record: ``engine.options`` plus ``engine.template_set``
    options: SensorOptions = field(default_factory=SensorOptions)
    #: ``engine.daemon`` over :data:`SCENARIO_DAEMON`
    daemon: DaemonOptions = SCENARIO_DAEMON


@dataclass(frozen=True)
class Bound:
    """A count/value constraint: exact, or a [min, max] window."""

    exact: float | None = None
    min: float | None = None
    max: float | None = None

    def check(self, value: float) -> bool:
        if self.exact is not None and value != self.exact:
            return False
        if self.min is not None and value < self.min:
            return False
        if self.max is not None and value > self.max:
            return False
        return True

    def describe(self) -> str:
        if self.exact is not None:
            return f"== {self.exact:g}"
        parts = []
        if self.min is not None:
            parts.append(f">= {self.min:g}")
        if self.max is not None:
            parts.append(f"<= {self.max:g}")
        return " and ".join(parts) or "anything"


@dataclass(frozen=True)
class RecoverySpec:
    """``expect.recovery``: crash-run assertions."""

    parity: bool = True
    restarts: Bound | None = None
    replayed: Bound | None = None
    deduped: Bound | None = None


@dataclass(frozen=True)
class ExpectSpec:
    total: Bound | None = None
    templates: dict[str, Bound] = field(default_factory=dict)
    sources: frozenset[str] | None = None
    metrics: dict[str, Bound] = field(default_factory=dict)
    digest: str | None = None
    recovery: RecoverySpec | None = None

    @property
    def empty(self) -> bool:
        return (self.total is None and not self.templates
                and self.sources is None and not self.metrics
                and self.digest is None and self.recovery is None)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str = ""
    seed: int = 0
    traffic: TrafficSpec | None = None
    campaigns: tuple[CampaignSpec, ...] = ()
    evasion: tuple[EvasionSpec, ...] = ()
    chaos: tuple[ChaosSpec, ...] = ()
    engine: EngineSpec = field(default_factory=EngineSpec)
    expect: ExpectSpec = field(default_factory=ExpectSpec)


# ---------------------------------------------------------------------------
# the key table (docs + validation share it)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemaKey:
    """One documented key of the DSL.

    ``path`` uses ``.`` for nesting and ``[]`` for list items
    (``campaigns[].engine``).  ``constraints`` is prose, shown verbatim
    in the reference table.
    """

    path: str
    type: str
    default: str
    doc: str
    constraints: str = ""


def _rows(prefix: str, record) -> list[SchemaKey]:
    """The rows of one record's keys — type, default, description and
    constraints read off its fields; ``record`` is the class, or the
    instance a section starts from where that is not the class's
    defaults (either way a field name is an attribute holding its
    default)."""
    rows = []
    for f in fields(record):
        meta = f.metadata
        if not meta["scenario"]:
            continue
        kind = re.sub(r"tuple\[(\w+), \.\.\.\]", r"list[\1]", f.type)
        if meta["required"]:
            default = "—"
        elif meta["unset"]:  # None stands for something the table can say
            kind, default = kind.replace(" | None", ""), meta["unset"]
        else:
            default = json.dumps(getattr(record, f.name))
        constraints = []
        if meta["required"]:
            constraints.append(" for ".join(
                filter(None, ("required", ", ".join(meta["only"])))))
        if meta["bound"]:
            constraints.append(("each " if "[" in kind else "")
                               + meta["bound"])
        if choices := meta["choices"]:
            constraints.append(getattr(choices, "says", None)
                               or "one of: " + ", ".join(choices))
        rows.append(SchemaKey(prefix + f.name, kind.replace("None", "null"),
                              default, meta["doc"], "; ".join(constraints)))
    return rows


SCHEMA: list[SchemaKey] = [
    SchemaKey("scenario", "str", "—",
              "Scenario name (used in reports and result JSON).",
              "required; non-empty"),
    SchemaKey("description", "str", '""',
              "Free-form description."),
    SchemaKey("seed", "int", "0",
              "Master seed; every unset sub-seed is derived from it, so "
              "one integer pins the whole run.",
              f"0 <= seed <= {MAX_SEED}"),
    SchemaKey("traffic", "map", "absent",
              "Benign background mix (absent = no benign traffic)."),
    *_rows("traffic.", TrafficSpec),
    SchemaKey("campaigns", "list", "[]",
              "Attack campaigns, one mapping per infected/attacking "
              "host."),
    *_rows("campaigns[].", CampaignSpec),
    SchemaKey("evasion", "list", "[]",
              "Trace transforms applied in order to the merged trace "
              "(attacker-side reassembly attacks)."),
    *_rows("evasion[].", EvasionSpec),
    SchemaKey("chaos", "list", "[]",
              "Seeded fault injection riding along with the trace."),
    *_rows("chaos[].", ChaosSpec),
    SchemaKey("engine", "map", "serial defaults",
              "Which analysis engine runs the trace."),
    SchemaKey("engine.kind", "str", '"serial"',
              "Engine flavour.", "one of: " + ", ".join(ENGINE_KINDS)),
    SchemaKey("engine.workers", "int", "2",
              "parallel / fleet only: worker processes.", ">= 2"),
    SchemaKey("engine.template_set", "str", '"paper"',
              "Named template set every engine kind can rebuild.",
              "a repro.core.library.TEMPLATE_SETS name"),
    SchemaKey("engine.options", "map", "{}",
              "Engine construction knobs: the fields of "
              "repro.nids.SensorOptions a scenario may set, checked by "
              "the record itself (null = the default, here and in every "
              "section)."),
    *_rows("engine.options.", SensorOptions),
    SchemaKey("engine.daemon", "map", "{}",
              "daemon kind only: ingestion tuning, the fields of "
              "repro.nids.DaemonOptions a scenario may set.  The shed "
              "policy starts from block (lossless) so runs stay "
              "deterministic; shedding policies trade that away."),
    *_rows("engine.daemon.", SCENARIO_DAEMON),
    SchemaKey("expect", "map", "absent",
              "Assertions evaluated after the run; any failure makes "
              "the scenario (and repro-scenario run) fail."),
    SchemaKey("expect.alerts", "map", "absent",
              "Alert-stream assertions."),
    SchemaKey("expect.alerts.total", "int | map", "absent",
              "Total alert count: an exact int, or {min, max}."),
    SchemaKey("expect.alerts.templates", "map", "absent",
              "Per-template alert-count bounds; keys must exist in the "
              "engine's template set (or be a degraded-alert template), "
              "so a renamed template fails validation, not silently."),
    SchemaKey("expect.alerts.sources", "list[str]", "absent",
              "Exact set of alert source addresses."),
    SchemaKey("expect.metrics", "map", "absent",
              "Bounds on registry metrics by name ({min, max}; value is "
              "summed over labels)."),
    SchemaKey("expect.digest", "str | null", "null",
              "Pinned sha256 hex digest of the rendered alert stream "
              "(the byte-exact reproducibility contract)."),
    SchemaKey("expect.recovery", "map", "absent",
              "Crash-recovery assertions; requires a chaos entry of "
              "kind crash."),
    SchemaKey("expect.recovery.parity", "bool", "true",
              "Assert the recovered post-dedupe alert stream is "
              "byte-identical to an uninterrupted reference run's."),
    SchemaKey("expect.recovery.restarts", "int | map", "absent",
              "Bounds on crashes survived (kills that actually fired)."),
    SchemaKey("expect.recovery.replayed", "int | map", "absent",
              "Bounds on journaled alerts replayed across all "
              "restarts."),
    SchemaKey("expect.recovery.deduped", "int | map", "absent",
              "Bounds on duplicate alerts suppressed across all "
              "restarts."),
]


def schema_keys() -> list[str]:
    """Every documented key path, in declaration order."""
    return [k.path for k in SCHEMA]


def _children(prefix: str) -> set[str]:
    """Immediate child key names under ``prefix`` in :data:`SCHEMA`."""
    out = set()
    for key in SCHEMA:
        if key.path.startswith(prefix):
            rest = key.path[len(prefix):]
            if rest and "." not in rest and "[]" not in rest:
                out.add(rest)
    return out


# ---------------------------------------------------------------------------
# validation machinery
# ---------------------------------------------------------------------------

class _Ctx:
    """A mapping being validated, with its YAML path for error messages."""

    def __init__(self, data: dict, path: str) -> None:
        self.data = data
        self.path = path

    def err(self, key: str, message: str) -> ScenarioError:
        where = f"{self.path}.{key}" if self.path else key
        return ScenarioError(where, message)

    def reject_unknown(self, allowed, context: str) -> None:
        for key in self.data:
            if key not in allowed:
                raise self.err(
                    str(key), f"unknown key of {context}; expected one of: "
                              + ", ".join(sorted(allowed)))

    def get(self, key: str, kind: str, default: Any = None,
            bound: str = "", **how) -> Any:
        """The value at ``key`` (``default`` when absent), checked the
        way a record checks a field of type ``kind`` declared with
        ``bound`` and ``how`` (:func:`repro.nids.options._opt`)."""
        spec = _opt(default, "", bound, **how)
        spec.name, spec.type = key, kind
        try:
            return _checked(spec, self.data.get(key, default))
        except (TypeError, ValueError) as exc:  # "<key>: <problem>"
            raise self.err(key, str(exc).partition(": ")[2]) from None


def _sub(ctx: _Ctx, key: str) -> _Ctx:
    """The mapping under ``key`` of ``ctx``, with its path."""
    path = f"{ctx.path}.{key}" if ctx.path else key
    return _Ctx(_mapping(ctx.data[key], path), path)


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected a mapping, got "
                                  f"{type(value).__name__} ({value!r})")
    return value


def _bound(value: Any, path: str, *, integral: bool = True) -> Bound:
    """Parse an int (exact) or a {min, max} mapping into a :class:`Bound`."""
    number = (int,) if integral else (int, float)
    if isinstance(value, bool):
        raise ScenarioError(path, f"expected a count or {{min, max}}, "
                                  f"got bool ({value!r})")
    if isinstance(value, number):
        if value < 0:
            raise ScenarioError(path, f"must be >= 0, got {value!r}")
        return Bound(exact=value)
    ctx = _Ctx(_mapping(value, path), path)
    ctx.reject_unknown({"min", "max"}, "a bound")
    kind = "int | None" if integral else "float | None"
    lo, hi = (ctx.get(end, kind, None, ">= 0") for end in ("min", "max"))
    if lo is None and hi is None:
        raise ScenarioError(path, "empty bound: give an exact count or "
                                  "min/max")
    if lo is not None and hi is not None and lo > hi:
        raise ScenarioError(path, f"min {lo:g} exceeds max {hi:g}")
    return Bound(min=lo, max=hi)


# ---------------------------------------------------------------------------
# section validators
# ---------------------------------------------------------------------------


def _section(start, ctx: _Ctx, what: str):
    """Build a section's record from its mapping — the one validator of
    every section.  ``start`` is the record class, or the instance the
    mapping's keys replace fields of; ``null`` is a key left unset.  A
    key is refused when the record has no such field, or has it only for
    other kinds than the one its first field picks; the record's own
    ``<field>: <problem>`` becomes the error at that key's YAML path."""
    known = {f.name: f for f in fields(start) if f.metadata["scenario"]}
    given = {key: value for key, value in ctx.data.items()
             if key in known and value is not None}
    try:
        record = (replace(start, **given) if isinstance(start, Record)
                  else start(**given))
    except (TypeError, ValueError) as exc:
        name, _, problem = str(exc).partition(": ")
        raise ctx.err(name, problem) from None
    head = fields(record)[0]
    takes = sorted(name for name, f in known.items() if record.takes(f))
    for key in ctx.data:
        if key in known and key not in takes:
            raise ctx.err(key, f"not an option of {head.name} "
                               f"{getattr(record, head.name)!r} (it takes: "
                               f"{', '.join(takes)})")
    ctx.reject_unknown(takes, what)
    return record


def _sections(record, root: _Ctx, key: str, what: str) -> tuple:
    """A list-valued section: one ``record`` per mapping."""
    items = root.data.get(key) or []
    if not isinstance(items, list):
        raise root.err(key, f"expected a list of mappings, got {items!r}")
    return tuple(
        _section(record, _Ctx(_mapping(item, f"{key}[{i}]"), f"{key}[{i}]"),
                 what)
        for i, item in enumerate(items))


def _validate_engine(ctx: _Ctx) -> EngineSpec:
    ctx.reject_unknown(_children("engine."), "engine")
    kind = ctx.get("kind", "str", "serial", choices=ENGINE_KINDS)
    workers = ctx.get("workers", "int | None", None, ">= 2")
    # Stays with the key rather than in check_conflicts: a built spec
    # always has a worker count, and a parity run from a parallel file
    # (--override-engine serial) must keep working.
    if workers is not None and kind in ("serial", "daemon"):
        raise ctx.err("workers",
                      f"only meaningful for parallel/fleet engines "
                      f"(engine.kind is {kind!r}); remove it or switch "
                      f"kinds")
    options = SensorOptions(template_set=ctx.get(
        "template_set", "str", "paper", choices=tuple(TEMPLATE_SETS)))
    if "options" in ctx.data:
        options = _section(options, _sub(ctx, "options"), "engine.options")
    daemon = SCENARIO_DAEMON
    if "daemon" in ctx.data:
        daemon = _section(daemon, _sub(ctx, "daemon"), "engine.daemon")
    return EngineSpec(kind=kind, workers=workers or 2, options=options,
                      daemon=daemon)


def _validate_expect(ctx: _Ctx, engine: EngineSpec) -> ExpectSpec:
    ctx.reject_unknown(_children("expect."), "expect")
    total: Bound | None = None
    templates: dict[str, Bound] = {}
    sources: frozenset[str] | None = None
    if "alerts" in ctx.data:
        actx = _sub(ctx, "alerts")
        actx.reject_unknown(_children("expect.alerts."), "expect.alerts")
        if "total" in actx.data:
            total = _bound(actx.data["total"], f"{actx.path}.total")
        if "templates" in actx.data:
            tmap = _mapping(actx.data["templates"],
                            f"{actx.path}.templates")
            template_set = engine.options.template_set
            known = _known_templates(template_set)
            for name, raw in tmap.items():
                where = f"{actx.path}.templates.{name}"
                if name not in known:
                    raise ScenarioError(
                        where,
                        f"template {name!r} is not in template set "
                        f"{template_set!r} (known: "
                        f"{', '.join(sorted(known))})")
                templates[name] = _bound(raw, where)
        if actx.data.get("sources") is not None:
            sources = frozenset(actx.get("sources", "tuple[str, ...]"))
    metrics: dict[str, Bound] = {}
    if "metrics" in ctx.data:
        mmap = _mapping(ctx.data["metrics"], f"{ctx.path}.metrics")
        for name, raw in mmap.items():
            if not isinstance(name, str) or not name.startswith("repro_"):
                raise ScenarioError(
                    f"{ctx.path}.metrics.{name}",
                    f"metric names are repro_* registry names, got "
                    f"{name!r}")
            metrics[name] = _bound(raw, f"{ctx.path}.metrics.{name}",
                                   integral=False)
    digest = ctx.get("digest", "str | None")
    if digest is not None:
        digest = digest.lower().removeprefix("sha256:")
        if len(digest) != 64 or set(digest) - set("0123456789abcdef"):
            raise ctx.err("digest", "expected a 64-char sha256 hex digest "
                                    "(optionally 'sha256:'-prefixed)")
    recovery: RecoverySpec | None = None
    if "recovery" in ctx.data:
        rctx = _sub(ctx, "recovery")
        rctx.reject_unknown(_children("expect.recovery."),
                            "expect.recovery")
        bounds = {}
        for key in ("restarts", "replayed", "deduped"):
            bounds[key] = (_bound(rctx.data[key], f"{rctx.path}.{key}")
                           if key in rctx.data else None)
        recovery = RecoverySpec(
            parity=rctx.get("parity", "bool", True),
            **bounds)
    return ExpectSpec(total=total, templates=templates, sources=sources,
                      metrics=metrics, digest=digest, recovery=recovery)


def _known_templates(template_set: str) -> frozenset[str]:
    """Template names resolvable in ``template_set``, plus the degraded
    templates the firewall can emit (expectable under chaos)."""
    return (frozenset(t.name for t in resolve_template_set(template_set))
            | DEGRADED_TEMPLATES)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def check_conflicts(spec: ScenarioSpec) -> ScenarioSpec:
    """The rules that span sections, over a built spec — run on every
    file, and again on a spec something has edited since
    (``repro-scenario run --override-engine``).  Returns ``spec``."""
    engine, kind = spec.engine, spec.engine.kind
    if kind != "daemon" and engine.daemon != SCENARIO_DAEMON:
        raise ScenarioError(
            "engine.daemon",
            f"daemon tuning conflicts with engine.kind {kind!r}; set "
            f"kind: daemon or drop the block")
    if engine.options.smtp_fanout_threshold is not None:
        if kind == "fleet":
            raise ScenarioError(
                "engine.options",
                "smtp_fanout_threshold needs cross-flow classifier state, "
                "which the fleet engine shards per source; use serial, "
                "parallel, or daemon")
        if not engine.options.classification_enabled:
            raise ScenarioError(
                "engine.options",
                "smtp_fanout_threshold is dead weight with "
                "classification_enabled: false — the fan-out monitor lives "
                "inside the classifier, which a classify-everything run "
                "never consults; drop one of the two")
    crashes = 0
    for i, chaos in enumerate(spec.chaos):
        if chaos.kind == "decode-faults" and kind == "fleet":
            raise ScenarioError(
                f"chaos[{i}].kind",
                "decode-faults cannot hook the fleet engine (classification "
                "happens inside worker processes); use serial, parallel, or "
                "daemon")
        if chaos.kind == "crash" and kind == "serial":
            raise ScenarioError(
                f"chaos[{i}].kind",
                "crash chaos needs an engine under the durability layer "
                "(checkpoints + journal); set engine.kind to daemon, "
                "parallel or fleet")
        crashes += chaos.kind == "crash"
    if crashes > 1:
        raise ScenarioError(
            "chaos", "at most one crash entry per scenario (one kill "
                     "schedule drives the whole restart loop)")
    if crashes and engine.daemon.shed_policy != "block":
        raise ScenarioError(
            "engine.daemon.shed_policy",
            f"crash chaos requires the lossless block policy (got "
            f"{engine.daemon.shed_policy!r}): replay parity cannot hold "
            f"when load shedding drops packets nondeterministically")
    if spec.expect.recovery is not None and not crashes:
        raise ScenarioError(
            "expect.recovery",
            "recovery assertions need a chaos entry of kind crash")
    return spec


def validate(data: Any, source: str = "<scenario>") -> ScenarioSpec:
    """Validate a parsed YAML document into a :class:`ScenarioSpec`.

    Raises :class:`ScenarioError` (never anything else) on the first
    problem, naming the YAML path of the offending key.
    """
    try:
        return _validate(data)
    except ScenarioError:
        raise
    except Exception as exc:  # pragma: no cover - belt and braces
        raise ScenarioError("", f"{source}: {type(exc).__name__}: {exc}")


def _validate(data: Any) -> ScenarioSpec:
    root = _Ctx(_mapping(data, "<document>"), "")
    root.reject_unknown(_children(""), "a scenario")
    engine = (_validate_engine(_sub(root, "engine"))
              if "engine" in root.data else EngineSpec())
    return check_conflicts(ScenarioSpec(
        name=root.get("scenario", "str", "", required=True),
        description=root.get("description", "str", ""),
        seed=root.get("seed", "int", 0, f"0 <= seed <= {MAX_SEED}"),
        traffic=(_section(TrafficSpec, _sub(root, "traffic"), "traffic")
                 if "traffic" in root.data else None),
        campaigns=_sections(CampaignSpec, root, "campaigns", "a campaign"),
        evasion=_sections(EvasionSpec, root, "evasion", "an evasion entry"),
        chaos=_sections(ChaosSpec, root, "chaos", "a chaos entry"),
        engine=engine,
        expect=(_validate_expect(_sub(root, "expect"), engine)
                if "expect" in root.data else ExpectSpec()),
    ))
