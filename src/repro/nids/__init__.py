"""The five-stage semantic NIDS pipeline, its options record, alerts,
statistics, the wire-attached live sensor, the always-on daemon, and the
scale-out sensor fleet."""

from .alerts import Alert, BlockList
from .options import SensorOptions
from .stats import NidsStats, StageTimer
from .pipeline import SemanticNids
from .parallel import ParallelSemanticNids
from .sensor import NidsSensor
from .daemon import (DaemonStats, IterPacketSource, MetaPacketSource,
                     SensorDaemon, TailPacketSource)
from .fleet import FleetStats, SensorFleet
from .report import AlertReport, build_report

__all__ = ["Alert", "BlockList", "NidsStats", "StageTimer", "SemanticNids",
           "ParallelSemanticNids", "NidsSensor", "SensorOptions",
           "SensorDaemon", "DaemonStats", "IterPacketSource",
           "TailPacketSource", "MetaPacketSource", "SensorFleet",
           "FleetStats", "AlertReport", "build_report", "build_engine"]


def build_engine(kind: str = "serial", options: SensorOptions | None = None,
                 *, workers: int = 2, **engine_kwargs):
    """The one construction ladder: the ``serial``, ``parallel`` or
    ``fleet`` engine over ``options``, with ``workers`` processes where
    the kind has any; ``engine_kwargs`` go to the chosen constructor
    (``tracer=``, ``breaker_threshold=``, ``transport=``, ...)."""
    if kind == "serial":
        return SemanticNids(options, **engine_kwargs)
    if kind == "parallel":
        return ParallelSemanticNids(options, workers=workers, **engine_kwargs)
    if kind == "fleet":
        return SensorFleet(workers=workers, nids_options=options,
                           **engine_kwargs)
    raise ValueError(f"unknown engine kind {kind!r}; expected serial, "
                     "parallel or fleet")
