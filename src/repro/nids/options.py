"""The sensor's options, declared once.

The paper's sensor (§4, Figure 3) is one pipeline whose only
site-specific inputs are the honeypot list, the dark space and the
threshold *t*; a handful of robustness bounds have joined them since.
Each is a field of :class:`SensorOptions` — name, default, description,
range, flag — and every way of running the sensor reads it from there:
engine constructors build the record from their keywords, workers get
it as ``initargs``, and the scenario DSL's ``engine.options.*`` rows and
the engine flags of both sensor commands are generated from it.

A refused value raises :class:`TypeError` (wrong type, unknown option)
or :class:`ValueError` (out of range) reading ``<field>: <problem>``,
which is how the scenario loader finds the YAML path to blame.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

from ..core.library import TEMPLATE_SETS

__all__ = ["SensorOptions"]

_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str}
_BOUNDS = {">=": operator.ge, ">": operator.gt}


def _opt(default, doc: str, bound: str = "", *, flag: str | None = None,
         scenario: bool | None = None, **cli):
    """One option: default, description, range (``">= 1"``), the flag
    that sets it with its ``metavar`` / ``help`` / ``choices`` (``cli``;
    choices bind every caller), and whether ``engine.options`` of a
    scenario file may set it (by default: whatever has a flag)."""
    return field(default=default, metadata={
        "doc": doc, "bound": bound, "flag": flag, "cli": cli,
        "scenario": flag is not None if scenario is None else scenario})


def _checked(f, value):
    """``value`` as field ``f`` stores it, or the error naming ``f``."""
    kind, _, nullable = f.type.partition(" | ")
    if value is None and nullable:
        return None
    if kind.startswith("tuple"):
        if (not isinstance(value, (list, tuple))
                or not all(isinstance(item, str) for item in value)):
            raise TypeError(f"{f.name}: expected a list of str, got "
                            f"{value!r}")
        return tuple(value)
    # bool is an int subclass: keep the kinds distinct.
    if (not isinstance(value, _KINDS[kind])
            or isinstance(value, bool) != (kind == "bool")):
        raise TypeError(f"{f.name}: expected {kind}, got "
                        f"{type(value).__name__} ({value!r})")
    bound = f.metadata["bound"]
    if bound:
        op, limit = bound.split()
        if not _BOUNDS[op](value, float(limit)):
            raise ValueError(f"{f.name}: must be {bound}, got {value!r}")
    choices = f.metadata["cli"].get("choices")
    if choices and value not in choices:
        raise ValueError(f"{f.name}: unknown value {value!r}; expected one "
                         f"of: {', '.join(choices)}")
    return float(value) if kind == "float" else value


@dataclass(frozen=True)
class SensorOptions:
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

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _checked(f, getattr(self, f.name)))
