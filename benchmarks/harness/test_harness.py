"""Harness self-tests, at tiny scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q``
(the ``benchmarks/conftest.py`` one level up imports ``repro``).
"""

import json
import re
from pathlib import Path

import pytest

import adapters
import child
import metrics
import oracle
import run
import tracing
import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


# -- span arithmetic ----------------------------------------------------------


def test_self_time_partitions_the_root_span():
    """A(0..10) calls B(1..4), which calls C(2..3), then B(5..6)."""
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 10])
    tracer = tracing.LayerTracer(clock=lambda: next(ticks))
    c = tracer.wrap("low", "C", lambda: None)
    b = tracer.wrap("mid", "B", lambda deep: c() if deep else None)
    a = tracer.wrap("top", "A", lambda: (b(True), b(False)))
    tracer.recording = True
    a()
    assert tracer.points == {"C": [1, 1, 1], "B": [2, 3, 4], "A": [1, 6, 10]}
    rows = tracing.layer_table([tracer.snapshot()], ["top", "mid", "low"],
                               wall_s=12)
    assert rows["top.self_s"] + rows["mid.self_s"] + rows["low.self_s"] == 10
    assert rows["unattributed_s"] == 2
    assert rows["mid.calls"] == 2


def test_worker_snapshots_add_calls_but_not_wall():
    main = {"points": {"A": [1, 4.0, 4.0]}, "layer_of": {"A": "top"}}
    worker = {"points": {"B": [5, 3.0, 3.0]}, "layer_of": {"B": "mid"}}
    rows = tracing.layer_table([main, worker], ["top", "mid"], wall_s=5.0)
    assert rows["mid.calls"] == 5 and rows["mid.self_s"] == 3.0
    assert rows["unattributed_s"] == 1.0


def test_spans_close_when_the_wrapped_call_raises():
    ticks = iter([0, 1, 3, 7])
    tracer = tracing.LayerTracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("low", "inner", boom)

    def outer_fn():
        try:
            inner()
        except ValueError:
            pass

    outer = tracer.wrap("top", "outer", outer_fn)
    tracer.recording = True
    outer()
    assert tracer.points == {"inner": [1, 2, 2], "outer": [1, 5, 7]}


# -- percentile rule ----------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert metrics.supported(1000, 99) and not metrics.supported(999, 99)
    assert metrics.supported(200, 95) and not metrics.supported(199, 95)
    assert metrics.supported(20, 50) and not metrics.supported(19, 50)
    samples = [float(i) for i in range(1, 201)]
    assert metrics.percentile(samples, 95) == 190.0
    assert metrics.percentile(samples, 50) == 100.0
    p50, p95, n = metrics.latency_summary(samples[:150], 1.0, 95)
    assert (p50, p95, n) == (75.0, 0.0, 150)


def test_compare_rule_is_spread_aware():
    base = [100, 101, 99, 100, 102]
    assert metrics.compare_metric(base, [105, 104, 106, 105, 103],
                                  "lower", 0.10) == "ok"
    assert metrics.compare_metric(base, [130, 131, 129, 130, 132],
                                  "lower", 0.10) == "regressed"
    assert metrics.compare_metric([80, 100, 140, 100, 90],
                                  [90, 125, 150, 120, 130],
                                  "lower", 0.10) == "unresolved"
    assert metrics.compare_metric(base, [70, 71, 69, 70, 72],
                                  "higher", 0.10) == "regressed"
    assert metrics.compare_metric(base, [130, 131, 129, 130, 132],
                                  "higher", 0.10) == "ok"


def test_a_pass_supports_its_percentiles_with_its_own_samples():
    """Passes of one child replay the same events: pooling them would
    count each event once per pass."""
    one = child._Pass({"workdir": ".", "ts_base_us": 0, "ts_step_us": 1},
                      None, 0)
    one.pkt_latencies = [1e-6 * i for i in range(1, 1000)]
    assert one.latencies()["pkt_latency_p99_us"] == 0.0
    assert one.latencies()["pkt_latency_p50_us"] == pytest.approx(500.0)
    one.pkt_latencies.append(1e-3)
    assert one.latencies()["pkt_latency_p99_us"] == pytest.approx(990.0)
    assert one.latencies()["alert_latency_p50_ms"] == 0.0


def test_gated_values_are_medians():
    measuring = [{"setup_s": 0.5, "peak_rss_mb": 100, "passes": [{}]},
                 {"setup_s": 0.3, "peak_rss_mb": 110, "passes": [{}]}]
    setup_only = {"setup_s": 0.4, "peak_rss_mb": 50, "passes": []}
    assert run.gated(measuring + [setup_only]) == {
        "setup_s": 0.4, "peak_rss_mb": 105}


# -- names --------------------------------------------------------------------


def test_benchmark_json_lists_the_harness_vocabulary():
    assert BENCHMARK["paths"] == ["benchmarks/harness"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(metrics.GATED)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(metrics.PER_LAYER)
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"] + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) and len(name) <= 64 for name in names)
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


def test_every_wrap_point_resolves_into_a_known_layer():
    points = adapters.wrap_points()
    assert {layer for layer, *_ in points} == set(metrics.LAYERS)
    assert len(points) == len(adapters._POINTS)
    assert all(owners for _layer, _point, owners, _attr, _hook in points)


def _driver(capsys, *argv) -> dict:
    assert run.main(list(argv) + ["--scale", "tiny", "--seconds", "0.1"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_driver_mode_emits_exactly_the_end_to_end_names(capsys):
    out = _driver(capsys, "--workload", "service_mixed", "--seed", "2",
                  "--trace", "0")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units


def test_traced_driver_mode_emits_exactly_the_per_layer_names(capsys):
    out = _driver(capsys, "--workload", "fleet_mixed", "--seed", "2",
                  "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    values = {k: v["value"] for k, v in out["metrics"].items()}
    # worker-side layers are read back from the forked workers' dumps
    assert values["nids.fleet.calls"] == 2
    assert values["core.analyzer.calls"] > 0
    assert values["nids.fleet.shard_skew"] >= 1.0


# -- a traced repetition, in this process -------------------------------------


@pytest.fixture
def tiny_spec(tmp_path):
    capture = workloads.write_capture("attack_cold", 3, tmp_path, "tiny")
    spec = {"strategy": "serial", "zoo": None,
            "classification": True, "capture": capture.path,
            "warm_capture": "", "packets": capture.packets,
            "ts_base_us": workloads.TS_BASE_US,
            "ts_step_us": workloads.TS_STEP_US, "trace": True, "passes": 1,
            "workdir": str(tmp_path), "spawned": 0.0}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return capture, path


def test_traced_run_adds_up_and_removes_its_wrappers(tiny_spec, capsys):
    capture, spec_path = tiny_spec
    before = [(owner, attr, vars(owner).get(attr))
              for _l, _p, owners, attr, _h in adapters.wrap_points()
              for owner in owners]
    assert child.main(["child.py", str(spec_path)]) == 0
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, (owner, attr)
        assert not hasattr(getattr(owner, attr), "__wrapped__")
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rows, (only,) = result["per_layer"], result["passes"]
    total = sum(rows[f"{layer}.self_s"] for layer in metrics.LAYERS)
    assert total + rows["unattributed_s"] == pytest.approx(only["wall_s"])
    assert rows["net.packet.calls"] == capture.packets
    assert rows["core.analyzer.frame_cache_hit_share"] < 0.25
    assert not oracle.judge(capture, only["alerts"], only["counters"])


# -- the oracle ---------------------------------------------------------------


def _capture(labels, record_flow):
    return workloads.Capture(
        path="", sha256="", packets=len(record_flow), payload_bytes=0,
        flows=[f"flow{i}" for i in range(len(labels))], labels=labels,
        record_flow=record_flow)


def test_oracle_names_every_kind_of_failure():
    cap = _capture(["attack:clet", "benign", "attack:crii"], [0, 1, 2, 2])
    ts = [workloads.TS_BASE_US + i * workloads.TS_STEP_US for i in range(4)]
    clean = {"packets_seen": 4, "shed": 0, "uncounted": 0}
    good = [[ts[0], "a", "b", "xor_decrypt_loop"],
            [ts[3], "a", "b", "codered_ii_vector"]]
    assert oracle.judge(cap, good, clean) == {}
    bad = oracle.judge(
        cap,
        [[ts[1], "a", "b", "xor_decrypt_loop"],
         [ts[2], "a", "b", "resilience.deadline-exceeded"],
         [ts[0] + 1, "a", "b", "xor_decrypt_loop"]],
        {"packets_seen": 3, "shed": 1, "uncounted": 0})
    assert bad["flow0"] == "missed attack:clet"
    assert bad["flow1"].startswith("alert on benign flow")
    assert bad["flow2"] == "missed attack:crii"  # degraded is not detection
    assert "(accounting)" in bad
    assert any(key.startswith("(stray alert") for key in bad)
    identity = dict(clean, ingested=5, queued=0)
    assert "(daemon identity)" in oracle.judge(cap, good, identity)


def test_alert_digest_ignores_order_but_not_content():
    a = [[1, "s", "d", "t"], [2, "s", "d", "u"]]
    assert oracle.alert_digest(a) == oracle.alert_digest(a[::-1])
    assert oracle.alert_digest(a) != oracle.alert_digest(a[:1])
    cap = _capture(["attack:x"], [0])
    diff = oracle.diff_flows(
        cap, [[workloads.TS_BASE_US, "s", "d", "t"]], [], "the serial sensor")
    assert diff == {"flow0": "alerts differ from the serial sensor: t"}


def test_corpus_is_a_function_of_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    one = workloads.write_capture("mixed", 5, tmp_path / "a", "tiny")
    two = workloads.write_capture("mixed", 5, tmp_path / "b", "tiny")
    other = workloads.write_capture("mixed", 6, tmp_path / "c", "tiny")
    assert one.sha256 == two.sha256 != other.sha256
    sidecar = json.loads((tmp_path / "a" / "mixed.labels.json").read_text())
    assert sidecar["sha256"] == one.sha256
    assert set(sidecar["labels"].values()) >= {"benign", "attack:crii"}
