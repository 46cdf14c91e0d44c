"""A metric is declared once, and every engine exports all of them.

Two contracts of :mod:`repro.obs.catalog`:

1. **The schema promise, on every engine** — a serial sensor, a parallel
   engine and a fleet on either transport, with or without a
   :class:`~repro.nids.SensorDaemon` around them, end a capture with the
   ``(name, kind, labels, unit)`` schema of the catalog, and a healthy
   run merges no series the catalog does not hold.
2. **Declared once** — an audit of ``src/repro``: no ``repro_*`` series
   literal outside the catalog that is not one of its rows, no row that
   no module binds, and no row that no code path can move.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

import repro
from repro.engines.codered import CodeRedHost
from repro.net.pcap import PcapReader, read_pcap, write_pcap
from repro.nids import SensorDaemon, SensorOptions, build_engine
from repro.nids.daemon import IterPacketSource, MetaPacketSource
from repro.obs import CATALOG
from repro.resilience import CONTAINED_STAGES, SHED_POLICIES

OPTIONS = SensorOptions(dark_networks=("10.0.0.0/8",),
                        dark_exclude=("10.10.0.0/24",), dark_threshold=5)

#: engine name -> (build_engine arguments, fed record boundaries?)
ENGINES = {
    "serial": (dict(kind="serial"), False),
    "parallel": (dict(kind="parallel", workers=2), False),
    "fleet-pickle": (dict(kind="fleet", workers=2), False),
    "fleet-offset": (dict(kind="fleet", workers=2, transport="offset"), True),
}


def catalog_schema():
    return sorted((row.name, row.kind, tuple(sorted(labels.items())),
                   row.unit)
                  for row in CATALOG.values() for labels in row.label_sets())


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    packets = []
    for i in range(3):
        host = CodeRedHost(ip=f"10.{40 + i}.1.2", seed=5 + i)
        packets += host.scan_packets(count=8, base_time=float(i))
        for v in range(3):
            packets += host.exploit_packets(f"10.10.0.{5 + v}",
                                            base_time=10.0 + i + v * 0.01)
    packets.sort(key=lambda p: p.timestamp)
    path = tmp_path_factory.mktemp("schema") / "trace.pcap"
    write_pcap(path, packets)
    return str(path)


def _run(name, capture, daemon_dir=None):
    """One pass of ``capture`` through an engine; its registry after."""
    arguments, meta = ENGINES[name]
    engine = build_engine(options=OPTIONS, **arguments)
    try:
        if daemon_dir is not None:
            source = (MetaPacketSource(PcapReader(capture)) if meta
                      else IterPacketSource(read_pcap(capture)))
            SensorDaemon(engine, source, shed_policy="block",
                         checkpoint_dir=daemon_dir,
                         checkpoint_interval=20).run()
        elif arguments["kind"] == "fleet":
            engine.process_capture(capture)
        else:
            engine.process_trace(read_pcap(capture))
    finally:
        engine.close()
    return engine.registry


class TestSchemaPromise:
    @pytest.mark.parametrize("daemon", [False, True],
                             ids=["bare", "under-daemon"])
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_every_engine_ends_with_the_catalog_schema(self, engine, daemon,
                                                       capture, tmp_path):
        registry = _run(engine, capture, tmp_path if daemon else None)
        assert registry.get("repro_alerts_total").value > 0
        assert registry.schema() == catalog_schema()
        assert registry.get("repro_obs_merge_unknown_total").value == 0
        if engine != "serial":  # worker deltas did arrive
            assert registry.get("repro_stage_calls_total",
                                {"stage": "match"}).value > 0

    def test_a_skewed_delta_is_folded_and_counted_once(self, capture):
        registry = _run("fleet-pickle", capture)
        skewed = {"counters": [("repro_next_version_total", (), 4)]}
        registry.merge_delta(skewed)
        registry.merge_delta(skewed)
        assert registry.get("repro_next_version_total").value == 8
        assert registry.get("repro_obs_merge_unknown_total").value == 1

    def test_label_vocabularies_are_their_owners(self):
        assert CATALOG["repro_stage_faults_total"].labels == {
            "stage": CONTAINED_STAGES}
        assert CATALOG["repro_shed_packets_total"].labels == {
            "policy": SHED_POLICIES}


# ---------------------------------------------------------------------------
# Declared once: the audit of src/repro
# ---------------------------------------------------------------------------

SRC = Path(repro.__file__).parent
CATALOG_FILE = SRC / "obs" / "catalog.py"
REGISTRY_FILE = SRC / "obs" / "registry.py"
SERIES_NAME = re.compile(r"repro_[a-z0-9_]+")
FACTORIES = {"counter", "gauge", "histogram", "MetricField"}
MOVERS = {"inc", "set", "observe"}


@functools.cache
def _modules():
    return [(path, ast.parse(path.read_text()))
            for path in sorted(SRC.rglob("*.py")) if path != CATALOG_FILE]


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else \
        func.id if isinstance(func, ast.Name) else ""


def _created(node) -> list[str]:
    """Series names a subtree creates: first arguments of the registry
    factories and of ``MetricField``."""
    return [call.args[0].value for call in ast.walk(node)
            if isinstance(call, ast.Call) and _callee(call) in FACTORIES
            and call.args and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)]


def _holder(node) -> str | None:
    """The attribute a metric expression hangs off: ``X`` for ``a.X``,
    ``a.X.value``, ``a.X[k]`` and ``a.X.get(k)``."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call) and _callee(node) == "get":
            node = node.func.value
        elif isinstance(node, ast.Attribute) and node.attr == "value":
            node = node.value
        else:
            return node.attr if isinstance(node, ast.Attribute) else None


class TestDeclaredOnce:
    def test_every_series_literal_outside_the_catalog_is_one_of_its_rows(self):
        stray = [(path.name, node.value)
                 for path, tree in _modules() for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str)
                 and SERIES_NAME.fullmatch(node.value)
                 and node.value not in CATALOG]
        assert stray == []

    def test_only_the_registry_makes_a_series(self):
        """Everything else goes through the factories, which refuse a
        ``repro_*`` name without a row."""
        bypass = [(path.name, node.attr)
                  for path, tree in _modules() if path != REGISTRY_FILE
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("_series", "_metrics")]
        assert bypass == []

    def test_every_row_is_bound_by_some_module(self):
        bound = {name for _path, tree in _modules()
                 for name in _created(tree)}
        assert set(CATALOG) - bound == set()

    def test_every_row_can_move(self):
        """Each series is bound to an attribute somewhere, and some code
        path increments, sets or observes an attribute of that name —
        a row that fails this is a series nothing can ever move."""
        holders: dict[str, set[str]] = {name: set() for name in CATALOG}
        fields, moved = set(), set()
        for _path, tree in _modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    target = node.targets[0]
                    attr = (target.id if isinstance(target, ast.Name)
                            else _holder(target))
                    for name in _created(node.value):
                        holders[name].add(attr)
                        if isinstance(target, ast.Name):
                            fields.add(attr)  # a MetricField descriptor
                    if (isinstance(target, ast.Attribute)
                            and not _created(node.value)):
                        moved.add(("=", _holder(target),
                                   target.attr == "value"))
                elif isinstance(node, ast.AugAssign):
                    moved.add(("+", _holder(node.target), True))
                elif (isinstance(node, ast.Call)
                      and _callee(node) in MOVERS
                      and isinstance(node.func, ast.Attribute)):
                    moved.add(("+", _holder(node.func.value), True))
        # ``a.X = v`` moves a series only through a descriptor or .value
        movable = {attr for how, attr, direct in moved
                   if how == "+" or direct or attr in fields}
        stuck = sorted(name for name, attrs in holders.items()
                       if not attrs & movable)
        assert stuck == []
