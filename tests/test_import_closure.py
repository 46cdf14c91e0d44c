"""A sensor process loads what it runs (docs/architecture.md "Process
floor"): what a serial sensor, a daemon and the two spawning engines
import, the digests that must not move with the provider, and the lazy
package namespaces — pinned in fresh interpreters, without timing."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import digest
from repro.core.analyzer import SemanticAnalyzer
from repro.core.library import (library_digest, paper_templates,
                                xor_decrypt_loop)
from repro.net.pcap import write_pcap
from repro.nids.fleet import SensorFleet

SRC = Path(__file__).resolve().parents[1] / "src"

#: never loaded by a serial sensor or a daemon, whatever the traffic
OFF_PATH = [
    "_hashlib", "_ssl", "multiprocessing", "concurrent.futures.process",
    "subprocess", "socket", "tempfile", "repro.x86.asm",
    "repro.x86.emulator", "repro.core.emuverify", "repro.engines",
    "repro.traffic", "repro.scenario", "repro.baseline",
    "repro.resilience.chaos", "repro.net.wire", "repro.nids.parallel",
    "repro.nids.fleet", "repro.nids.report",
]

#: computed on the commit before the digests left ``hashlib``
PINS = {
    "library": "0ec870c0f002c8d7b56eaa345c5d8221502d7635",
    "template": "090f1776c1a498f330243d99385b1627bb792315",
    "analyzer": "138bdbec2d8dbdb48ce804b8c4c6e58924c4c709",
    "shards": [3, 1, 6, 0, 2, 6],
    "blake2b": "7f7408cba4b4388806b765c2ce4da50a",
}
SENDERS = ["10.0.0.1", "10.10.0.7", "192.168.1.200", "172.16.254.3",
           "8.8.8.8", None]

DEPLOYMENT = ('dict(dark_networks=["10.0.0.0/8"], '
              'dark_exclude=["10.10.0.0/24"], dark_threshold=5)')


def _digests() -> dict:
    fleet = SimpleNamespace(workers=7)
    return {
        "library": library_digest(paper_templates()).hex(),
        "template": xor_decrypt_loop().fingerprint().hex(),
        "analyzer": SemanticAnalyzer()._fingerprint().hex(),
        "shards": [SensorFleet._shard_of(fleet, (ip,)) for ip in SENDERS],
        "blake2b": digest.blake2b(b"payload", digest_size=16,
                                  key=b"k" * 16).hexdigest(),
    }


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that sees only ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def _report(code: str, *argv: str) -> dict:
    """The JSON object ``code`` prints last."""
    done = _fresh(code, *argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def capture(tmp_path_factory) -> str:
    """A Code Red host scanning dark space, then exploiting a server —
    written by *this* process: the interpreters under test only read."""
    from repro.engines.codered import CodeRedHost

    host = CodeRedHost(ip="10.40.1.2", seed=5)
    path = tmp_path_factory.mktemp("closure") / "attack.pcap"
    write_pcap(path, host.scan_packets(count=8, base_time=0.0)
               + host.exploit_packets("10.10.0.5", base_time=10.0))
    return str(path)


SERIAL = f"""
import json, sys
from repro.net.pcap import PcapReader
from repro.nids import SemanticNids
nids = SemanticNids(**{DEPLOYMENT})
with PcapReader(sys.argv[1]) as reader:
    nids.process_trace(reader)
nids.flush()
print(json.dumps({{"alerts": len(nids.alerts), "modules": sorted(sys.modules)}}))
"""

DAEMON = f"""
import json, sys
from repro.net.pcap import PcapReader
from repro.nids import SemanticNids, SensorDaemon
from repro.nids.daemon import IterPacketSource
alerts = []
with PcapReader(sys.argv[1]) as reader:
    daemon = SensorDaemon(SemanticNids(**{DEPLOYMENT}),
                          IterPacketSource(iter(reader)),
                          checkpoint_dir=sys.argv[2], checkpoint_interval=4,
                          shed_policy="block", on_alert=alerts.append)
    stats = daemon.run()
print(json.dumps({{"alerts": len(alerts), "checkpoints": stats.checkpoints,
                  "modules": sorted(sys.modules)}}))
"""

#: ``eval`` pickles by reference under any start method
WORKER_MODULES = "sorted(__import__('sys').modules)"

SPAWNING = f"""
import json, sys
from repro.nids import ParallelSemanticNids, SensorFleet
before = sorted(sys.modules)
with SensorFleet(workers=1, nids_options={DEPLOYMENT}) as fleet:
    fleet_parent = sorted(sys.modules)
    fleet_worker = fleet._pools[0].submit(eval, {WORKER_MODULES!r}).result()
with ParallelSemanticNids(workers=2, **{DEPLOYMENT}) as parallel:
    parallel_worker = parallel._pools[0].submit(
        eval, {WORKER_MODULES!r}).result()
print(json.dumps({{"before": before, "fleet_parent": fleet_parent,
                  "fleet_worker": fleet_worker,
                  "parallel_worker": parallel_worker}}))
"""


class TestSensorPathClosure:
    def test_serial_sensor_loads_no_crypto_pool_or_attack_code(self, capture):
        seen = _report(SERIAL, capture)
        assert seen["alerts"] > 0  # stages (a)-(e) all ran
        assert [m for m in OFF_PATH if m in seen["modules"]] == []

    def test_checkpointing_daemon_loads_nothing_more(self, capture, tmp_path):
        seen = _report(DAEMON, capture, str(tmp_path / "state"))
        assert seen["alerts"] > 0 and seen["checkpoints"] > 0
        assert [m for m in OFF_PATH if m in seen["modules"]] == []

    def test_the_engine_that_spawns_loads_the_pool_stack(self):
        seen = _report(SPAWNING)
        pool = {"multiprocessing", "concurrent.futures.process"}
        assert not pool & set(seen["before"])  # importing the class is free
        assert pool <= set(seen["fleet_parent"])
        for worker in ("fleet_worker", "parallel_worker"):
            assert "repro.nids.pipeline" in seen[worker]
            assert not {"_hashlib", "_ssl"} & set(seen[worker])


HELP = """
import sys
from repro import cli
try:
    getattr(cli, sys.argv[1])([sys.argv[2]])
finally:
    print("numpy" in sys.modules, "_hashlib" in sys.modules, file=sys.stderr)
"""


class TestUsageNeedsNoEngine:
    @pytest.mark.parametrize("main", ["sensor_main", "sensord_main"])
    @pytest.mark.parametrize("flag, status", [("--help", 0), ("--bogus", 2)])
    def test_help_and_usage_errors_load_no_numpy(self, main, flag, status):
        done = _fresh(HELP, main, flag)
        assert done.returncode == status
        assert done.stderr.splitlines()[-1] == "False False"
        assert "--dark-net" in (done.stdout if status == 0 else done.stderr)


SCHEMA = """
import json, sys
from repro.scenario import schema
toolchain = ("repro.engines", "repro.traffic", "repro.x86.asm")
declared = [m for m in toolchain if m in sys.modules]
schema.validate({"scenario": "t", "campaigns": [
    {"engine": "admmutate", "family": "xor"}]})
print(json.dumps({"declared": declared,
                  "checked": [m for m in toolchain if m in sys.modules]}))
"""


class TestSchemaDeclaresWithoutTheToolchain:
    def test_vocabularies_load_when_a_value_is_checked(self):
        """The shellcode, transform and decoder-family names are owned
        by the attack toolchain; the schema names where they live."""
        seen = _report(SCHEMA)
        assert seen["declared"] == []
        assert "repro.engines" in seen["checked"]


#: only ``_sha1`` can be withheld: ``hashlib.blake2b`` *is* ``_blake2``'s
FALLBACK = """
import json, sys
sys.modules["_sha1"] = None
sys.path.insert(0, sys.argv[1])
import hashlib, test_import_closure as pins
assert pins.digest.sha1 is hashlib.sha1 and "_hashlib" in sys.modules
assert pins.digest.blake2b is hashlib.blake2b
print(json.dumps(pins._digests()))
"""


class TestDigestsKeepTheirBytes:
    def test_builtin_providers_match_the_parents_digests(self):
        assert digest.sha1 is not hashlib.sha1
        assert _digests() == PINS

    def test_hashlib_fallback_yields_the_same_bytes(self):
        assert _report(FALLBACK, str(Path(__file__).parent)) == PINS


LAZY_PACKAGES = ["repro.nids", "repro.core", "repro.x86", "repro.resilience",
                 "repro.net"]


class TestLazyNamespaces:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__)
        assert set(module.__all__) <= set(dir(module))
        for name in module.__all__:
            assert getattr(module, name) is not None

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_names_fail_as_they_always_did(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name")

    def test_star_import_still_binds_the_public_names(self):
        namespace: dict = {}
        exec("from repro.nids import *", namespace)
        assert {"SemanticNids", "SensorFleet", "build_engine"} <= set(namespace)
