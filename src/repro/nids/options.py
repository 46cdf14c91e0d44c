"""The sensor's and the daemon's options, declared once.

The paper's sensor (§4, Figure 3) is one pipeline whose only
site-specific inputs are the honeypot list, the dark space and the
threshold *t*; a handful of robustness bounds have joined them since.
Each is a field of :class:`SensorOptions` — name, default, description,
range, flag — and every way of running the sensor reads it from there:
engine constructors build the record from their keywords, workers get
it as ``initargs``, and the scenario DSL's ``engine.options.*`` rows and
the engine flags of both sensor commands are generated from it.
:class:`DaemonOptions` is the same for the loop around an engine
(:class:`~repro.nids.SensorDaemon`, the ``repro-sensord`` flags,
``engine.daemon.*``), and the scenario DSL declares its own sections
with the same :func:`_opt` fields (:mod:`repro.scenario.schema`).

A refused value raises :class:`TypeError` (wrong type, unknown option)
or :class:`ValueError` (out of range) reading ``<field>: <problem>``,
which is how the scenario loader finds the YAML path to blame and the
commands the flag.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from importlib import import_module

from ..core.library import TEMPLATE_SETS
from ..resilience.shedder import SHED_POLICIES

__all__ = ["SensorOptions", "DaemonOptions", "Record", "Vocabulary",
           "FLEET_TRANSPORTS"]

#: dispatcher→worker transports of :class:`~repro.nids.SensorFleet`
#: (here, not in ``fleet.py``, so that naming them loads no engine).
FLEET_TRANSPORTS = ("pickle", "offset")

_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str}
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _opt(default, doc: str, bound: str = "", *, flag: str | None = None,
         scenario: bool | None = None, choices=None, required: bool = False,
         only: tuple[str, ...] = (), unset: str | None = None, **cli):
    """One option: default, description, range (``">= 1"``, or two-sided
    ``"0 <= p <= 1"``), the values it may take (``choices``: a tuple, or
    a :class:`Vocabulary` looked up when a value is checked), the flag
    that sets it with its ``metavar`` / ``help`` (``cli``), and whether
    a scenario file may set it (by default: whatever has a flag).
    ``required`` refuses the empty default.  In a record whose first
    field picks a kind, ``only`` names the kinds that take this one;
    ``unset`` says in words what ``None`` stands for."""
    return field(default=default, metadata={
        "doc": doc, "bound": bound, "flag": flag, "cli": cli,
        "choices": choices, "required": required, "only": only,
        "unset": unset,
        "scenario": flag is not None if scenario is None else scenario})


class Vocabulary:
    """Choices resolved when a value is checked rather than when the
    field is declared, so declaring them imports nothing: ``where`` is
    the dotted name of the tuple, or of the function returning it, and
    ``says`` the constraint as the key table words it."""

    def __init__(self, says: str, where: str) -> None:
        self.says, self.where = says, where

    def __call__(self) -> tuple[str, ...]:
        module, _, name = self.where.rpartition(".")
        names = getattr(import_module(module), name)
        return tuple(names() if callable(names) else names)


def _checked(f, value):
    """``value`` as field ``f`` stores it, or the error naming ``f``."""
    kind, _, nullable = f.type.partition(" | ")
    if value is None and nullable:
        return None
    if kind.startswith("tuple"):  # "tuple[int, ...]": a list of its items
        kind, many = kind[6:-6], True
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{f.name}: expected a list of {kind}, got "
                            f"{value!r}")
        items = value = tuple(value)
    else:
        many, items = False, (value,)
    # bool is an int subclass: keep the kinds distinct.
    if not all(isinstance(item, _KINDS[kind])
               and isinstance(item, bool) == (kind == "bool")
               for item in items):
        raise TypeError(
            f"{f.name}: expected a list of {kind}, got {value!r}" if many
            else f"{f.name}: expected {kind}, got {type(value).__name__} "
                 f"({value!r})")
    if f.metadata["required"] and not value:
        raise ValueError(f"{f.name}: required, and must not be empty")
    bound = f.metadata["bound"]
    if bound:  # ">= 1", or two-sided "0 <= p <= 1"; a list: each item
        *low, op, limit = bound.split()
        if not all(_BOUNDS[op](item, float(limit))
                   and (not low or item >= float(low[0])) for item in items):
            raise ValueError(f"{f.name}: {'each ' * many}must be {bound}, "
                             f"got {value!r}")
    choices = f.metadata["choices"]
    if choices:
        choices = choices() if callable(choices) else choices
        if value not in choices:
            raise ValueError(f"{f.name}: unknown value {value!r}; expected "
                             f"one of: {', '.join(choices)}")
    return float(value) if kind == "float" and not many else value


class Record:
    """What every options record does once built: each field is stored
    as :func:`_checked` returns it, or the build is refused."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if self.takes(f):
                object.__setattr__(self, f.name,
                                   _checked(f, getattr(self, f.name)))

    def takes(self, f) -> bool:
        """Whether field ``f`` means anything to this record: always,
        unless the record's first field picks a kind and ``f`` is for
        other kinds ``only``."""
        only = f.metadata["only"]
        return not only or getattr(self, fields(self)[0].name) in only


@dataclass(frozen=True)
class SensorOptions(Record):
    """Everything picklable that configures one sensor pipeline (the
    live objects — ``templates``, ``registry``, ``tracer``,
    ``quarantine`` — stay keywords of the engine constructors)."""

    honeypots: tuple[str, ...] = _opt(
        (), "Decoy addresses; any sender contacting one is suspicious.",
        flag="--honeypot", metavar="IP", help="decoy address (repeatable)")
    dark_networks: tuple[str, ...] | None = _opt(
        None, "Unused address space (CIDRs).",
        flag="--dark-net", metavar="CIDR",
        help="unused address space (repeatable)")
    dark_exclude: tuple[str, ...] | None = _opt(
        None, "Used subnets carved out of dark space.",
        flag="--dark-exclude", metavar="CIDR",
        help="used subnets carved out of dark space")
    dark_threshold: int = _opt(
        5, "Dark-space scan threshold t of §4.1.", ">= 1",
        flag="--threshold", help="dark-space scan threshold t (default 5)")
    smtp_fanout_threshold: int | None = _opt(
        None, "Distinct-relay threshold of the SMTP fan-out monitor "
              "(null = monitor off).", ">= 1", scenario=True)
    classification_enabled: bool = _opt(
        True, "false analyzes every payload (the paper's §5.4 mode).",
        flag="--no-classify", help="analyze every payload (the §5.4 mode)")
    analysis_deadline_ms: float | None = _opt(
        None, "Per-payload analysis budget in deterministic instruction "
              "units (repro.resilience.UNITS_PER_MS = 10000 per ms); "
              "exhausting it costs the payload a "
              "resilience.deadline-exceeded alert; null = unbounded.", "> 0",
        flag="--analysis-deadline-ms", metavar="MS",
        help="per-payload analysis budget in deterministic instruction "
             "units (10000/ms); payloads that exhaust it get a degraded "
             "alert instead of stalling the sensor (default: no budget)")
    max_streams: int = _opt(
        65536, "Flood bound on live TCP streams, evicted oldest-first "
               "with their per-stream analysis state.", ">= 1", flag="--max-streams", metavar="N",
        help="flood bound on live TCP streams, evicted oldest-first "
             "(closed and idle streams are reaped, so this is not the "
             "steady state; default 65536)")
    fastpath: bool = _opt(
        True, "Template anchor prefilter on/off (anchors are necessary "
              "conditions: the alert stream is byte-identical either way).",
        flag="--no-fastpath",
        help="disable the template anchor prefilter (fast-path "
             "admission); results are identical either way — the "
             "prefilter only skips work")
    template_set: str = _opt(
        "paper", "Template set, by name so that worker processes can "
                 "rebuild it (template predicates do not pickle).",
        flag="--template-set", scenario=False,  # engine.template_set
        choices=tuple(TEMPLATE_SETS),
        help="named template set to load (default paper)")
    # -- tuning: Python callers only --
    dark_hosts: tuple[str, ...] | None = _opt(
        None, "Single unused addresses, beside dark_networks.")
    max_rounds_per_stream: int = _opt(
        64, "Cap on incremental re-analyses of one growing stream.", ">= 1")
    reanalysis_growth: int = _opt(
        4096, "A growing stream is re-analyzed on its first payload "
              "bytes, after each further this many, and at FIN — bounding "
              "the quadratic cost of rescanning long transfers.", ">= 1")
    reanalysis_overlap: int = _opt(
        16384, "Already-analyzed bytes re-extracted with each grown "
               "suffix, to cover a frame or sled straddling the boundary; "
               "older bytes are released from the reassembler.", ">= 0")
    frame_cache_size: int = _opt(
        4096, "Bound on the analyzer's content-hash frame cache, the "
              "pipeline's one analysis cache; 0 disables it.", ">= 0")


@dataclass(frozen=True)
class DaemonOptions(Record):
    """Everything picklable that configures the loop around an engine
    (live objects — ``on_alert``, ``delivery``, ``template_provider`` —
    and run arguments — ``checkpoint_dir``, ``resume``, ``clock`` — stay
    keywords of :class:`~repro.nids.SensorDaemon`)."""

    ring_capacity: int = _opt(
        4096, "Bounded admission ring size, packets.", ">= 1",
        flag="--ring-capacity", metavar="N",
        help="bounded ingestion ring size in packets (default 4096)")
    shed_policy: str = _opt(
        "newest", "Ring-full behaviour: shed the arriving packet (newest), "
                  "evict the stalest queued one (oldest), or pause the "
                  "source (block: backpressure, zero loss).",
        flag="--shed-policy", choices=SHED_POLICIES,
        help="ring-full behaviour: shed the arriving packet (newest), "
             "evict the stalest queued one (oldest), or pause the source "
             "(block); every shed is counted, never silent (default newest)")
    batch_size: int = _opt(
        256, "Packets per cooperative tick.", ">= 1",
        flag="--batch-size", metavar="N",
        help="packets ingested/processed per loop tick (default 256)")
    window_secs: float = _opt(
        0.0, "Seconds per rolling metrics window (0 = off).", ">= 0",
        flag="--window-secs", scenario=False, metavar="SECS",
        help="roll a metrics window every SECS seconds for rate / "
             "latency-quantile reporting (0 = off)")
    idle_timeout: float | None = _opt(
        None, "Stop after this many seconds without a packet ingested or "
              "processed (null = run until the source finishes).", ">= 0",
        flag="--idle-timeout", scenario=False, metavar="SECS",
        help="exit after SECS seconds with no packet moved (the usual way "
             "a --follow run ends; default: run until the source finishes)")
    checkpoint_interval: int = _opt(
        1000, "Processed packets between checkpoints.", ">= 1",
        flag="--checkpoint-interval", scenario=False, metavar="N",
        help="processed packets between checkpoints (default 1000; needs "
             "--checkpoint-dir)")
    journal_fsync_batch: int = _opt(
        8, "Journal appends per fsync.", ">= 1",
        flag="--journal-fsync-batch", scenario=False, metavar="N",
        help="journal appends per fsync — lower is more durable, higher "
             "is faster (default 8)")
