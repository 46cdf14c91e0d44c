"""The five-stage semantic NIDS pipeline, alerts, statistics, the
wire-attached live sensor, the always-on daemon, and the scale-out
sensor fleet."""

from .alerts import Alert, BlockList
from .stats import NidsStats, StageTimer
from .pipeline import SemanticNids
from .parallel import ParallelSemanticNids
from .sensor import NidsSensor
from .daemon import (DaemonStats, IterPacketSource, MetaPacketSource,
                     SensorDaemon, TailPacketSource)
from .fleet import FleetStats, SensorFleet
from .report import AlertReport, build_report

__all__ = ["Alert", "BlockList", "NidsStats", "StageTimer", "SemanticNids",
           "ParallelSemanticNids", "NidsSensor",
           "SensorDaemon", "DaemonStats", "IterPacketSource",
           "TailPacketSource", "MetaPacketSource", "SensorFleet",
           "FleetStats", "AlertReport", "build_report"]
