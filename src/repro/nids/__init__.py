"""The five-stage semantic NIDS pipeline, its options records, alerts,
statistics, the wire-attached live sensor, the always-on daemon, and the
scale-out sensor fleet."""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = ["Alert", "BlockList", "NidsStats", "StageTimer", "SemanticNids",
           "ParallelSemanticNids", "NidsSensor", "SensorOptions",
           "DaemonOptions", "SensorDaemon", "DaemonStats", "IterPacketSource",
           "TailPacketSource", "MetaPacketSource", "SensorFleet",
           "FleetStats", "AlertReport", "build_report", "build_engine"]

__getattr__, __dir__ = lazy_exports(globals(), {
    "alerts": ("Alert", "BlockList"),
    "options": ("DaemonOptions", "SensorOptions"),
    "stats": ("NidsStats", "StageTimer"),
    "pipeline": ("SemanticNids",),
    "parallel": ("ParallelSemanticNids",),
    "sensor": ("NidsSensor",),
    "daemon": ("DaemonStats", "IterPacketSource", "MetaPacketSource",
               "SensorDaemon", "TailPacketSource"),
    "fleet": ("FleetStats", "SensorFleet"),
    "report": ("AlertReport", "build_report"),
})


def build_engine(kind: str = "serial", options: SensorOptions | None = None,
                 *, workers: int = 2, **engine_kwargs):
    """The one construction ladder: the ``serial``, ``parallel`` or
    ``fleet`` engine over ``options``, with ``workers`` processes where
    the kind has any; ``engine_kwargs`` go to the chosen constructor
    (``tracer=``, ``breaker_threshold=``, ``transport=``, ...)."""
    if kind == "serial":
        from .pipeline import SemanticNids
        return SemanticNids(options, **engine_kwargs)
    if kind == "parallel":
        from .parallel import ParallelSemanticNids
        return ParallelSemanticNids(options, workers=workers, **engine_kwargs)
    if kind == "fleet":
        from .fleet import SensorFleet
        return SensorFleet(workers=workers, nids_options=options,
                           **engine_kwargs)
    raise ValueError(f"unknown engine kind {kind!r}; expected serial, "
                     "parallel or fleet")
