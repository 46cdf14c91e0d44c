"""Declarative scenario engine: YAML in, reproducible experiment out.

One scenario file composes benign traffic mixes, attack campaigns,
evasion and chaos schedules, an analysis engine, and expected-alert
assertions — behind a single master seed, so the same YAML and seed
reproduce a byte-identical alert stream (see docs/scenarios.md for the
DSL reference and the determinism contract).
"""

from .schema import (
    CAMPAIGN_ENGINES, CHAOS_KINDS, ENGINE_KINDS, SCHEMA, Bound,
    CampaignSpec, ChaosSpec, EngineSpec, EvasionSpec, ExpectSpec,
    ScenarioError, ScenarioSpec, SchemaKey, TrafficSpec, check_conflicts,
    schema_keys, validate,
)
from .loader import load_scenario, loads
from .runner import (
    RESULT_SCHEMA, CheckResult, ScenarioResult, build_trace, derive_seed,
    render_alert_stream, run_scenario,
)

__all__ = [
    "CAMPAIGN_ENGINES", "CHAOS_KINDS", "ENGINE_KINDS", "SCHEMA",
    "Bound", "CampaignSpec", "ChaosSpec", "EngineSpec", "EvasionSpec",
    "ExpectSpec", "ScenarioError", "ScenarioSpec", "SchemaKey",
    "TrafficSpec", "check_conflicts", "schema_keys", "validate",
    "load_scenario", "loads",
    "RESULT_SCHEMA", "CheckResult", "ScenarioResult", "build_trace",
    "derive_seed", "render_alert_stream", "run_scenario",
]
