"""repro.resilience — fault containment for a sensor that must not die.

A NIDS parses attacker-controlled bytes for a living, so "crash on
malformed input" is a remotely triggerable blind spot.  This package is
the containment layer threaded through the pipeline (see
docs/robustness.md):

- :mod:`repro.resilience.firewall` — per-stage fault counting and
  degraded-mode alerting glue (the pipeline catches, the firewall
  records);
- :mod:`repro.resilience.quarantine` — offending inputs preserved to a
  replayable pcap + JSONL sidecar;
- :mod:`repro.resilience.deadline` — deterministic per-payload analysis
  budgets (instruction units, not wall clock);
- :mod:`repro.resilience.breaker` — per-shard circuit breakers behind
  the parallel engine's worker self-healing;
- :mod:`repro.resilience.shedder` — bounded ingestion rings with
  capacity-aware, always-counted load shedding (the daemon's admission
  buffer);
- :mod:`repro.resilience.chaos` — seeded fault injection proving all of
  the above;
- :mod:`repro.resilience.journal` / :mod:`repro.resilience.checkpoint` /
  :mod:`repro.resilience.delivery` — the crash-safety layer (write-ahead
  alert journal, atomic progress checkpoints, effectively-once
  delivery), see docs/operations.md "Crash recovery & durability";
- :mod:`repro.resilience.recovery` — the crash/restart orchestration the
  differential harness and the scenario runner share.
"""

from .._lazy import lazy_exports

__all__ = [
    "AlertJournal",
    "BoundedRing",
    "SHED_POLICIES",
    "CLOSED",
    "CONTAINED_STAGES",
    "CheckpointStore",
    "DEADLINE_TEMPLATE",
    "DEGRADED_SEVERITY",
    "DurableDelivery",
    "FAULT_TEMPLATE",
    "HALF_OPEN",
    "JournalRecovery",
    "OPEN",
    "SimulatedCrash",
    "UNITS_PER_MS",
    "CircuitBreaker",
    "Deadline",
    "FaultInjector",
    "InjectedFault",
    "QuarantineWriter",
    "StageFirewall",
    "build_stall_payload",
    "tear_journal_tail",
    "truncate_capture",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "breaker": ("CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"),
    "chaos": ("FaultInjector", "InjectedFault", "SimulatedCrash",
              "build_stall_payload", "truncate_capture"),
    "checkpoint": ("CheckpointStore",),
    "deadline": ("UNITS_PER_MS", "Deadline"),
    "delivery": ("DurableDelivery",),
    "firewall": ("CONTAINED_STAGES", "DEADLINE_TEMPLATE",
                 "DEGRADED_SEVERITY", "FAULT_TEMPLATE", "StageFirewall"),
    "journal": ("AlertJournal", "JournalRecovery", "tear_journal_tail"),
    "quarantine": ("QuarantineWriter",),
    "shedder": ("SHED_POLICIES", "BoundedRing"),
})
