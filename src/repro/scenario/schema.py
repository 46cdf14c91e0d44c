"""The scenario DSL schema: typed specs, defaulting, precise errors.

A scenario file is a YAML mapping that composes the repository's building
blocks — benign traffic (:mod:`repro.traffic`), attack campaigns
(:mod:`repro.engines`), evasion transforms
(:mod:`repro.traffic.evasion`), chaos injection
(:mod:`repro.resilience.chaos`), an analysis engine (:mod:`repro.nids`)
— plus an ``expect:`` block asserting what the run must produce.  This
module owns the *shape* of that mapping: every key, its type, default
and constraints, declared once in :data:`SCHEMA` and enforced by
:func:`validate` — except ``engine.options.*``, whose rows and checks
are read off :class:`repro.nids.SensorOptions`.

Two consumers read :data:`SCHEMA` besides the validator:

- ``docs/scenarios.md`` documents exactly these keys, and
  ``tools/check_docs.py`` diffs the doc against :func:`schema_keys` in
  both directions, so the DSL reference cannot drift;
- ``repro-scenario list --keys`` prints the same table.

Validation raises :class:`ScenarioError` with the YAML path of the
offending key (``campaigns[1].engine: unknown engine 'cletx'``) — one
actionable line, never a traceback, which is what the CLI prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any

from ..core.library import TEMPLATE_SETS, resolve_template_set
from ..nids.options import SensorOptions

__all__ = [
    "SCHEMA", "SchemaKey", "ScenarioError",
    "ScenarioSpec", "TrafficSpec", "CampaignSpec", "EvasionSpec",
    "ChaosSpec", "EngineSpec", "ExpectSpec", "RecoverySpec", "Bound",
    "CAMPAIGN_ENGINES", "CHAOS_KINDS", "ENGINE_KINDS", "KILL_KINDS",
    "schema_keys", "validate",
]

MAX_SEED = 2**32 - 1

#: campaign engine -> the option keys (beyond the shared ones) it accepts.
CAMPAIGN_ENGINES: dict[str, frozenset[str]] = {
    "codered": frozenset({"scans", "count"}),
    "mailworm": frozenset({"count", "relay_net"}),
    "netsky": frozenset({"count", "size"}),
    "admmutate": frozenset({"count", "shellcode", "family"}),
    "clet": frozenset({"count", "shellcode"}),
    "metamorph": frozenset({"count", "shellcode", "junk_probability"}),
    "exploits": frozenset(),
}

#: keys every campaign accepts regardless of engine.
_CAMPAIGN_SHARED = frozenset({"engine", "at", "seed", "source", "target"})

CHAOS_KINDS = ("stall-payload", "decode-faults", "truncate-capture",
               "crash")
ENGINE_KINDS = ("serial", "parallel", "daemon", "fleet")
SHED_POLICIES = ("newest", "oldest", "block")
#: the seams a ``crash`` kill can land on (repro.resilience.recovery).
KILL_KINDS = ("mid-batch", "mid-checkpoint", "mid-journal-write")

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
# the declarative key table (docs + validation share it)
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
    SchemaKey("traffic.conversations", "int", "0",
              "Benign conversations to generate "
              "(HTTP/DNS/SMTP/ICMP mix).", ">= 0"),
    SchemaKey("traffic.seed", "int | null", "null",
              "Mix seed; null derives from the master seed.",
              f"0 <= seed <= {MAX_SEED}"),
    SchemaKey("traffic.client_net", "str", '"192.168.0.0/22"',
              "Client address pool (CIDR)."),
    SchemaKey("traffic.server_net", "str", '"10.10.0.0/24"',
              "Server address pool (CIDR)."),
    SchemaKey("traffic.start_time", "float", "0.0",
              "Wire clock at the first conversation.", ">= 0"),
    SchemaKey("traffic.mean_gap", "float", "0.02",
              "Mean inter-conversation gap, seconds.", "> 0"),
    SchemaKey("traffic.radiation", "int", "0",
              "Background-radiation packets (backscatter, worm residue) "
              "mixed in.", ">= 0"),
    SchemaKey("campaigns", "list", "[]",
              "Attack campaigns, one mapping per infected/attacking "
              "host."),
    SchemaKey("campaigns[].engine", "str", "—",
              "Attack engine.",
              "required; one of: " + ", ".join(sorted(CAMPAIGN_ENGINES))),
    SchemaKey("campaigns[].at", "float", "1.0",
              "Campaign start time on the shared clock, seconds.", ">= 0"),
    SchemaKey("campaigns[].seed", "int | null", "null",
              "Campaign seed; null derives from the master seed and the "
              "campaign index.", f"0 <= seed <= {MAX_SEED}"),
    SchemaKey("campaigns[].source", "str", "engine-specific",
              "Attacker / infected host address."),
    SchemaKey("campaigns[].target", "str", "engine-specific",
              "Victim / honeypot address (ignored by mailworm, which "
              "picks relays from relay_net)."),
    SchemaKey("campaigns[].count", "int", "engine-specific",
              "Instances: exploit conversations (codered, admmutate, "
              "clet, metamorph, netsky) or SMTP relays (mailworm).",
              ">= 1"),
    SchemaKey("campaigns[].scans", "int", "40",
              "codered only: SYN probes in the scan burst before the "
              "exploit.", ">= 0"),
    SchemaKey("campaigns[].relay_net", "str", '"10.10.1."',
              "mailworm only: relay subnet prefix."),
    SchemaKey("campaigns[].size", "int", "22528",
              "netsky only: worm body size in bytes.", ">= 1024"),
    SchemaKey("campaigns[].shellcode", "str", '"classic-execve"',
              "admmutate / clet / metamorph: payload from the shellcode "
              "corpus.", "a repro.engines.shellcode_names() entry"),
    SchemaKey("campaigns[].family", "str | null", "null",
              "admmutate only: force a decoder family.",
              'one of: "xor", "mov-or-and-not"'),
    SchemaKey("campaigns[].junk_probability", "float", "0.35",
              "metamorph only: junk-insertion probability.",
              "0 <= p <= 1"),
    SchemaKey("evasion", "list", "[]",
              "Trace transforms applied in order to the merged trace "
              "(attacker-side reassembly attacks)."),
    SchemaKey("evasion[].transform", "str", "—",
              "Transform name.",
              "required; a repro.traffic.evasion_names() entry"),
    SchemaKey("evasion[].seed", "int | null", "null",
              "Transform seed; null derives from the master seed and "
              "the transform index.", f"0 <= seed <= {MAX_SEED}"),
    SchemaKey("chaos", "list", "[]",
              "Seeded fault injection riding along with the trace."),
    SchemaKey("chaos[].kind", "str", "—",
              "Fault kind.", "required; one of: " + ", ".join(CHAOS_KINDS)),
    SchemaKey("chaos[].at", "float", "1.0",
              "stall-payload only: injection time.", ">= 0"),
    SchemaKey("chaos[].instructions", "int", "40000",
              "stall-payload only: instructions the stall body decodes "
              "to.", ">= 1000"),
    SchemaKey("chaos[].source", "str", '"10.66.6.6"',
              "stall-payload only: sender of the stall datagram."),
    SchemaKey("chaos[].target", "str", '"10.10.0.9"',
              "stall-payload only: destination of the stall datagram."),
    SchemaKey("chaos[].count", "int", "1",
              "decode-faults: packets whose classify call raises; "
              "stall-payload: stall datagrams injected.", ">= 1"),
    SchemaKey("chaos[].seed", "int | null", "null",
              "decode-faults only: injector seed; null derives from the "
              "master seed.", f"0 <= seed <= {MAX_SEED}"),
    SchemaKey("chaos[].drop_bytes", "int", "8",
              "truncate-capture only: bytes cut off the end of the "
              "written capture (the run then goes through a real pcap "
              "round-trip with salvage).", ">= 1"),
    SchemaKey("chaos[].kills", "list[int]", "—",
              "crash only: global processed-packet marks where the "
              "process is killed; each kill abandons the incarnation "
              "and the next one resumes from the checkpoints.",
              "required for crash; each >= 0"),
    SchemaKey("chaos[].kill_kind", "str", '"mid-batch"',
              "crash only: the seam the kill lands on.",
              "one of: " + ", ".join(KILL_KINDS)),
    SchemaKey("chaos[].checkpoint_interval", "int", "100",
              "crash only: processed packets between checkpoints.",
              ">= 1"),
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
              "the record itself (null = the default)."),
    # type, default, description and range of each: read off the record
    *(SchemaKey(f"engine.options.{f.name}",
                f.type.replace("tuple[str, ...]", "list[str]")
                      .replace("None", "null"),
                json.dumps(f.default), f.metadata["doc"],
                f.metadata["bound"])
      for f in fields(SensorOptions) if f.metadata["scenario"]),
    SchemaKey("engine.daemon", "map", "{}",
              "daemon kind only: ingestion tuning."),
    SchemaKey("engine.daemon.ring_capacity", "int", "4096",
              "Bounded admission ring size, packets.", ">= 1"),
    SchemaKey("engine.daemon.shed_policy", "str", '"block"',
              "Ring-full behaviour.  The scenario default is block "
              "(lossless) so runs stay deterministic; shedding policies "
              "trade that away.",
              "one of: " + ", ".join(SHED_POLICIES)),
    SchemaKey("engine.daemon.batch_size", "int", "256",
              "Packets per cooperative tick.", ">= 1"),
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
# typed specs
# ---------------------------------------------------------------------------


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
class TrafficSpec:
    conversations: int = 0
    seed: int | None = None
    client_net: str = "192.168.0.0/22"
    server_net: str = "10.10.0.0/24"
    start_time: float = 0.0
    mean_gap: float = 0.02
    radiation: int = 0


@dataclass(frozen=True)
class CampaignSpec:
    engine: str
    at: float = 1.0
    seed: int | None = None
    source: str | None = None
    target: str | None = None
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class EvasionSpec:
    transform: str
    seed: int | None = None


@dataclass(frozen=True)
class ChaosSpec:
    kind: str
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class EngineSpec:
    kind: str = "serial"
    workers: int = 2
    #: the engine's record: ``engine.options`` plus ``engine.template_set``
    options: SensorOptions = field(default_factory=SensorOptions)
    daemon: dict[str, Any] = field(default_factory=dict)


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
# validation machinery
# ---------------------------------------------------------------------------

_TYPE_NAMES = {str: "str", int: "int", float: "float", bool: "bool",
               dict: "map", list: "list"}


def _type_name(value: Any) -> str:
    for cls, name in _TYPE_NAMES.items():
        # bool is an int subclass: test exact class first.
        if type(value) is cls:
            return name
    return type(value).__name__


class _Ctx:
    """A mapping being validated, with its YAML path for error messages."""

    def __init__(self, data: dict, path: str) -> None:
        self.data = data
        self.path = path

    def err(self, key: str, message: str) -> ScenarioError:
        where = f"{self.path}.{key}" if self.path else key
        return ScenarioError(where, message)

    def reject_unknown(self, allowed: set[str],
                       context: str = "") -> None:
        for key in self.data:
            if key not in allowed:
                hint = f" of {context}" if context else ""
                raise self.err(
                    str(key),
                    f"unknown key{hint}; expected one of: "
                    + ", ".join(sorted(allowed)))

    def get(self, key: str, types: tuple[type, ...], default: Any = None,
            *, required: bool = False, minimum: float | None = None,
            maximum: float | None = None, choices=None,
            allow_none: bool = False) -> Any:
        if key not in self.data:
            if required:
                raise self.err(key, "required key is missing")
            return default
        value = self.data[key]
        if value is None and allow_none:
            return None
        # bool satisfies isinstance(..., int); keep the kinds distinct.
        if type(value) is bool and bool not in types:
            raise self.err(key, f"expected {_TYPE_NAMES[types[0]]}, "
                                f"got bool ({value!r})")
        if float in types and type(value) is int:
            value = float(value)
        if not isinstance(value, types):
            expected = " or ".join(_TYPE_NAMES.get(t, t.__name__)
                                   for t in types)
            raise self.err(key, f"expected {expected}, got "
                                f"{_type_name(value)} ({value!r})")
        if isinstance(value, str) and required and not value.strip():
            raise self.err(key, "must not be empty")
        if minimum is not None and value < minimum:
            raise self.err(key, f"must be >= {minimum:g}, got {value!r}")
        if maximum is not None and value > maximum:
            raise self.err(key, f"must be <= {maximum:g}, got {value!r}")
        if choices is not None and value not in choices:
            raise self.err(key, f"unknown value {value!r}; expected one "
                                f"of: {', '.join(sorted(choices))}")
        return value

    def get_seed(self, key: str = "seed") -> int | None:
        return self.get(key, (int,), default=None, allow_none=True,
                        minimum=0, maximum=MAX_SEED)

    def str_list(self, key: str, default=None) -> list[str] | None:
        value = self.get(key, (list,), default=default, allow_none=True)
        if value is default or value is None:
            return value
        for i, item in enumerate(value):
            if not isinstance(item, str):
                raise ScenarioError(
                    f"{self.path}.{key}[{i}]" if self.path else f"{key}[{i}]",
                    f"expected str, got {_type_name(item)} ({item!r})")
        return list(value)


def _sub(data: dict, key: str, path: str) -> _Ctx:
    return _Ctx(data[key], f"{path}.{key}" if path else key)


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected a mapping, got "
                                  f"{_type_name(value)} ({value!r})")
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
    mapping = _mapping(value, path)
    ctx = _Ctx(mapping, path)
    ctx.reject_unknown({"min", "max"}, "a bound")
    lo = ctx.get("min", number, default=None, allow_none=True, minimum=0)
    hi = ctx.get("max", number, default=None, allow_none=True, minimum=0)
    if lo is None and hi is None:
        raise ScenarioError(path, "empty bound: give an exact count or "
                                  "min/max")
    if lo is not None and hi is not None and lo > hi:
        raise ScenarioError(path, f"min {lo:g} exceeds max {hi:g}")
    return Bound(min=lo, max=hi)


# ---------------------------------------------------------------------------
# section validators
# ---------------------------------------------------------------------------


def _validate_traffic(ctx: _Ctx) -> TrafficSpec:
    ctx.reject_unknown(_children("traffic."), "traffic")
    return TrafficSpec(
        conversations=ctx.get("conversations", (int,), default=0, minimum=0),
        seed=ctx.get_seed(),
        client_net=ctx.get("client_net", (str,), default="192.168.0.0/22"),
        server_net=ctx.get("server_net", (str,), default="10.10.0.0/24"),
        start_time=ctx.get("start_time", (float,), default=0.0, minimum=0),
        mean_gap=ctx.get("mean_gap", (float,), default=0.02, minimum=1e-9),
        radiation=ctx.get("radiation", (int,), default=0, minimum=0),
    )


def _validate_campaign(ctx: _Ctx) -> CampaignSpec:
    engine = ctx.get("engine", (str,), required=True,
                     choices=set(CAMPAIGN_ENGINES))
    allowed = _CAMPAIGN_SHARED | CAMPAIGN_ENGINES[engine]
    for key in ctx.data:
        if key not in allowed:
            if key in _children("campaigns[]."):
                raise ctx.err(key, f"not an option of engine {engine!r} "
                                   f"(its options: "
                                   f"{', '.join(sorted(CAMPAIGN_ENGINES[engine])) or 'none'})")
            raise ctx.err(key, "unknown key of a campaign; expected one "
                               "of: " + ", ".join(sorted(allowed)))
    options: dict[str, Any] = {}
    if "count" in allowed:
        options["count"] = ctx.get("count", (int,), default=None,
                                   allow_none=True, minimum=1)
    if engine == "codered":
        options["scans"] = ctx.get("scans", (int,), default=40, minimum=0)
    if engine == "mailworm":
        options["relay_net"] = ctx.get("relay_net", (str,),
                                       default="10.10.1.")
    if engine == "netsky":
        options["size"] = ctx.get("size", (int,), default=22 * 1024,
                                  minimum=1024)
    if engine in ("admmutate", "clet", "metamorph"):
        from ..engines import shellcode_names

        options["shellcode"] = ctx.get("shellcode", (str,),
                                       default="classic-execve",
                                       choices=set(shellcode_names()))
    if engine == "admmutate":
        options["family"] = ctx.get("family", (str,), default=None,
                                    allow_none=True,
                                    choices={"xor", "mov-or-and-not"})
    if engine == "metamorph":
        options["junk_probability"] = ctx.get(
            "junk_probability", (float,), default=0.35,
            minimum=0.0, maximum=1.0)
    return CampaignSpec(
        engine=engine,
        at=ctx.get("at", (float,), default=1.0, minimum=0),
        seed=ctx.get_seed(),
        source=ctx.get("source", (str,), default=None, allow_none=True),
        target=ctx.get("target", (str,), default=None, allow_none=True),
        options={k: v for k, v in options.items() if v is not None},
    )


def _validate_evasion(ctx: _Ctx) -> EvasionSpec:
    from ..traffic.evasion import evasion_names

    ctx.reject_unknown({"transform", "seed"}, "an evasion entry")
    return EvasionSpec(
        transform=ctx.get("transform", (str,), required=True,
                          choices=set(evasion_names())),
        seed=ctx.get_seed(),
    )


def _validate_chaos(ctx: _Ctx, engine_kind: str) -> ChaosSpec:
    kind = ctx.get("kind", (str,), required=True, choices=set(CHAOS_KINDS))
    per_kind = {
        "stall-payload": {"at", "instructions", "source", "target", "count"},
        "decode-faults": {"count", "seed"},
        "truncate-capture": {"drop_bytes"},
        "crash": {"kills", "kill_kind", "checkpoint_interval"},
    }[kind]
    for key in ctx.data:
        if key != "kind" and key not in per_kind:
            if key in _children("chaos[]."):
                raise ctx.err(key, f"not an option of chaos kind {kind!r} "
                                   f"(its options: "
                                   f"{', '.join(sorted(per_kind))})")
            raise ctx.err(key, "unknown key of a chaos entry; expected "
                               "one of: kind, " + ", ".join(sorted(per_kind)))
    options: dict[str, Any] = {}
    if kind == "stall-payload":
        options["at"] = ctx.get("at", (float,), default=1.0, minimum=0)
        options["instructions"] = ctx.get("instructions", (int,),
                                          default=40_000, minimum=1000)
        options["source"] = ctx.get("source", (str,), default="10.66.6.6")
        options["target"] = ctx.get("target", (str,), default="10.10.0.9")
        options["count"] = ctx.get("count", (int,), default=1, minimum=1)
    elif kind == "decode-faults":
        if engine_kind == "fleet":
            raise ctx.err("kind", "decode-faults cannot hook the fleet "
                                  "engine (classification happens inside "
                                  "worker processes); use serial, "
                                  "parallel, or daemon")
        options["count"] = ctx.get("count", (int,), default=1, minimum=1)
        options["seed"] = ctx.get_seed()
    elif kind == "truncate-capture":
        options["drop_bytes"] = ctx.get("drop_bytes", (int,), default=8,
                                        minimum=1)
    elif kind == "crash":
        if engine_kind == "serial":
            raise ctx.err("kind",
                          "crash chaos needs an engine under the "
                          "durability layer (checkpoints + journal); "
                          "set engine.kind to daemon, parallel or fleet")
        kills = ctx.get("kills", (list,), required=True)
        if not kills:
            raise ctx.err("kills", "must name at least one kill mark")
        for i, mark in enumerate(kills):
            if type(mark) is bool or not isinstance(mark, int) or mark < 0:
                raise ScenarioError(
                    f"{ctx.path}.kills[{i}]",
                    f"expected an int >= 0, got {mark!r}")
        options["kills"] = list(kills)
        options["kill_kind"] = ctx.get("kill_kind", (str,),
                                       default="mid-batch",
                                       choices=set(KILL_KINDS))
        options["checkpoint_interval"] = ctx.get(
            "checkpoint_interval", (int,), default=100, minimum=1)
    return ChaosSpec(kind=kind,
                     options={k: v for k, v in options.items()
                              if v is not None})


def _validate_engine(ctx: _Ctx) -> EngineSpec:
    ctx.reject_unknown(_children("engine."), "engine")
    kind = ctx.get("kind", (str,), default="serial",
                   choices=set(ENGINE_KINDS))
    workers = ctx.get("workers", (int,), default=None, allow_none=True,
                      minimum=2)
    if workers is not None and kind in ("serial", "daemon"):
        raise ctx.err("workers",
                      f"only meaningful for parallel/fleet engines "
                      f"(engine.kind is {kind!r}); remove it or switch "
                      f"kinds")
    template_set = ctx.get("template_set", (str,), default="paper",
                           choices=set(TEMPLATE_SETS))
    options = SensorOptions(template_set=template_set)
    if "options" in ctx.data:
        octx = _Ctx(_mapping(ctx.data["options"], f"{ctx.path}.options"),
                    f"{ctx.path}.options")
        octx.reject_unknown(_children("engine.options."), "engine.options")
        try:
            options = replace(options, **{
                k: v for k, v in octx.data.items() if v is not None})
        except (TypeError, ValueError) as exc:  # "<field>: <problem>"
            name, _, problem = str(exc).partition(": ")
            raise octx.err(name, problem) from None
    daemon: dict[str, Any] = {}
    if "daemon" in ctx.data:
        if kind != "daemon":
            raise ctx.err("daemon",
                          f"daemon tuning conflicts with engine.kind "
                          f"{kind!r}; set kind: daemon or drop the block")
        dctx = _Ctx(_mapping(ctx.data["daemon"], f"{ctx.path}.daemon"),
                    f"{ctx.path}.daemon")
        dctx.reject_unknown(_children("engine.daemon."), "engine.daemon")
        daemon = {
            "ring_capacity": dctx.get("ring_capacity", (int,),
                                      default=4096, minimum=1),
            "shed_policy": dctx.get("shed_policy", (str,), default="block",
                                    choices=set(SHED_POLICIES)),
            "batch_size": dctx.get("batch_size", (int,), default=256,
                                   minimum=1),
        }
    if kind == "fleet" and options.smtp_fanout_threshold is not None:
        raise ctx.err("options",
                      "smtp_fanout_threshold needs cross-flow classifier "
                      "state, which the fleet engine shards per source; "
                      "use serial, parallel, or daemon")
    if (not options.classification_enabled
            and options.smtp_fanout_threshold is not None):
        raise ctx.err("options",
                      "smtp_fanout_threshold is dead weight with "
                      "classification_enabled: false — the fan-out "
                      "monitor lives inside the classifier, which a "
                      "classify-everything run never consults; drop one "
                      "of the two")
    return EngineSpec(kind=kind, workers=workers or 2, options=options,
                      daemon=daemon)


def _validate_expect(ctx: _Ctx, engine: EngineSpec) -> ExpectSpec:
    ctx.reject_unknown(_children("expect."), "expect")
    total: Bound | None = None
    templates: dict[str, Bound] = {}
    sources: frozenset[str] | None = None
    if "alerts" in ctx.data:
        actx = _Ctx(_mapping(ctx.data["alerts"], f"{ctx.path}.alerts"),
                    f"{ctx.path}.alerts")
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
        raw_sources = actx.str_list("sources")
        if raw_sources is not None:
            sources = frozenset(raw_sources)
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
    digest = ctx.get("digest", (str,), default=None, allow_none=True)
    if digest is not None:
        digest = digest.lower().removeprefix("sha256:")
        if len(digest) != 64 or set(digest) - set("0123456789abcdef"):
            raise ctx.err("digest", "expected a 64-char sha256 hex digest "
                                    "(optionally 'sha256:'-prefixed)")
    recovery: RecoverySpec | None = None
    if "recovery" in ctx.data:
        rctx = _Ctx(_mapping(ctx.data["recovery"], f"{ctx.path}.recovery"),
                    f"{ctx.path}.recovery")
        rctx.reject_unknown(_children("expect.recovery."),
                            "expect.recovery")
        bounds = {}
        for key in ("restarts", "replayed", "deduped"):
            bounds[key] = (_bound(rctx.data[key], f"{rctx.path}.{key}")
                           if key in rctx.data else None)
        recovery = RecoverySpec(
            parity=rctx.get("parity", (bool,), default=True),
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
    name = root.get("scenario", (str,), required=True)
    seed = root.get("seed", (int,), default=0, minimum=0, maximum=MAX_SEED)
    engine = EngineSpec()
    if "engine" in root.data:
        engine = _validate_engine(_sub(root.data, "engine", ""))
    traffic = None
    if "traffic" in root.data:
        traffic = _validate_traffic(
            _Ctx(_mapping(root.data["traffic"], "traffic"), "traffic"))
    campaigns = []
    if "campaigns" in root.data:
        raw = root.get("campaigns", (list,), default=[])
        for i, item in enumerate(raw):
            path = f"campaigns[{i}]"
            campaigns.append(_validate_campaign(
                _Ctx(_mapping(item, path), path)))
    evasion = []
    if "evasion" in root.data:
        raw = root.get("evasion", (list,), default=[])
        for i, item in enumerate(raw):
            path = f"evasion[{i}]"
            evasion.append(_validate_evasion(
                _Ctx(_mapping(item, path), path)))
    chaos = []
    if "chaos" in root.data:
        raw = root.get("chaos", (list,), default=[])
        for i, item in enumerate(raw):
            path = f"chaos[{i}]"
            chaos.append(_validate_chaos(
                _Ctx(_mapping(item, path), path), engine.kind))
    expect = ExpectSpec()
    if "expect" in root.data:
        expect = _validate_expect(
            _Ctx(_mapping(root.data["expect"], "expect"), "expect"), engine)
    crash_entries = [c for c in chaos if c.kind == "crash"]
    if len(crash_entries) > 1:
        raise ScenarioError(
            "chaos", "at most one crash entry per scenario (one kill "
                     "schedule drives the whole restart loop)")
    if crash_entries and engine.kind == "daemon":
        policy = engine.daemon.get("shed_policy", "block")
        if policy != "block":
            raise ScenarioError(
                "engine.daemon.shed_policy",
                f"crash chaos requires the lossless block policy "
                f"(got {policy!r}): replay parity cannot hold when "
                f"load shedding drops packets nondeterministically")
    if expect.recovery is not None and not crash_entries:
        raise ScenarioError(
            "expect.recovery",
            "recovery assertions need a chaos entry of kind crash")
    return ScenarioSpec(
        name=name,
        description=root.get("description", (str,), default=""),
        seed=seed,
        traffic=traffic,
        campaigns=tuple(campaigns),
        evasion=tuple(evasion),
        chaos=tuple(chaos),
        engine=engine,
        expect=expect,
    )
