"""Tests for the sensor fleet: flow-hash dispatch across worker
processes, deterministic alert merge, cross-process metric folding via
the registry delta protocol, and what a dead worker costs."""

import re

import pytest

from repro.engines.shellcode import get_shellcode
from repro.net.packet import udp_packet
from repro.nids import SemanticNids, SensorFleet
from repro.nids.fleet import SHARD_LOST_TEMPLATE, kill_pool
from repro.traffic.traces import build_table3_trace

DARK = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
            dark_threshold=5)


def _alert_key(alert):
    return (alert.timestamp, alert.source, alert.destination,
            alert.template, alert.detail)


def _serial_alerts(packets, **options):
    nids = SemanticNids(**options)
    alerts = []
    for pkt in packets:
        alerts.extend(nids.process_packet(pkt))
    alerts.extend(nids.flush())
    return alerts


def _execve_packet(sport=1000):
    payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
    return udp_packet("6.6.6.6", "10.10.0.3", sport, 69, payload)


@pytest.fixture(scope="module")
def trace():
    return build_table3_trace(2, target_packets=2500, seed=1000).packets


@pytest.fixture(scope="module")
def serial_alerts(trace):
    return _serial_alerts(trace, **DARK)


class TestParity:
    def test_fleet_matches_batch_engine(self, trace, serial_alerts):
        """The acceptance bar: the sharded fleet raises exactly the
        alerts the batch engine does — source sharding keeps per-source
        classifier state (darkspace scan counts) on one worker."""
        assert len(serial_alerts) > 0  # the trace must actually alert
        with SensorFleet(workers=3, batch_size=32, nids_options=DARK) as fleet:
            fleet_alerts = fleet.process_trace(trace)
        assert sorted(map(_alert_key, fleet_alerts)) == \
            sorted(map(_alert_key, serial_alerts))

    def test_merge_order_is_deterministic(self, trace):
        def run():
            with SensorFleet(workers=3, batch_size=16,
                             nids_options=DARK) as fleet:
                return [_alert_key(a)
                        for a in fleet.process_trace(trace[:1200])]

        assert run() == run()

    def test_alerts_flow_before_the_flush_in_dispatch_order(self, trace,
                                                            serial_alerts):
        """The engine contract: ``process_packet`` hands out what every
        shard has resolved so far — alerts trail their packets by about
        a batch instead of waiting for the flush — and the pieces
        concatenate to the one deterministic stream."""
        from concurrent.futures import wait

        pieces = []
        with SensorFleet(workers=3, batch_size=16, nids_options=DARK) as fleet:
            for pkt in trace[:-100]:
                pieces += fleet.process_packet(pkt)
            # Every shipped batch resolved (only partial batches are still
            # buffered): the next packet must bring their alerts along.
            wait([f for queue in fleet._futures for _key, f in queue],
                 timeout=60)
            pieces += fleet.process_packet(trace[-100])
            early = len(pieces)
            for pkt in trace[-99:]:
                pieces += fleet.process_packet(pkt)
            pieces += fleet.drain()
            assert fleet._collected == [] and not any(fleet._futures)
            assert fleet.stats.alerts == len(pieces) == len(serial_alerts)
            pieces += fleet.flush()
            assert pieces == fleet.alerts
        assert 0 < early
        assert [_alert_key(a) for a in pieces] == \
            [_alert_key(a) for a in serial_alerts]


class TestMetricsAggregation:
    def test_worker_metrics_fold_into_aggregator(self):
        packets = [_execve_packet(sport=7000 + i) for i in range(6)]
        opts = dict(classification_enabled=False)
        with SensorFleet(workers=2, batch_size=2, nids_options=opts) as fleet:
            alerts = fleet.process_trace(packets)
            reg = fleet.registry
            stats = fleet.stats
        assert len(alerts) == 6
        # every dispatched packet is visible in the aggregator registry
        assert reg.get("repro_fleet_dispatched_total").value == 6
        # ...and the workers' own pipeline counters folded across the
        # process boundary via collect_delta -> merge_delta
        assert reg.get("repro_packets_total").value == 6
        assert stats.deltas_merged > 0

    def test_a_healthy_fleet_merges_no_unknown_series(self):
        """The aggregator holds the catalog its workers hold: every
        worker series is known on arrival (54 "unknown" before)."""
        with SensorFleet(workers=2, batch_size=2,
                         nids_options=dict(classification_enabled=False)) \
                as fleet:
            for i in range(4):
                fleet.process_packet(_execve_packet(sport=7100 + i))
            fleet.flush()
            reg = fleet.registry
        assert reg.get("repro_stage_calls_total", {"stage": "match"}).value
        assert reg.get("repro_obs_merge_unknown_total").value == 0


class TestShardLoss:
    """A worker that dies is either re-fed from the replay log (kept
    under a watchdog or once a snapshot was taken) or, without one,
    restarts blank — and then says what it lost."""

    KILL_AT = 1200

    def _run(self, trace, snapshot_at=None, **options):
        with SensorFleet(workers=2, batch_size=32, nids_options=DARK,
                         **options) as fleet:
            for i, pkt in enumerate(trace):
                if i == snapshot_at:
                    fleet.snapshot_state()
                if i == self.KILL_AT:
                    kill_pool(fleet._pools[0], discard=False)
                fleet.process_packet(pkt)
            fleet.flush()
            lost = fleet.registry.get("repro_fleet_shard_lost_packets_total")
            return fleet.alerts, fleet.stats, lost.value

    def test_without_a_replay_log_the_loss_is_alerted_and_counted(self, trace):
        alerts, stats, lost = self._run(trace)
        assert stats.watchdog_restarts == 1
        (alert,) = [a for a in alerts if a.template == SHARD_LOST_TEMPLATE]
        assert alert.severity == "degraded"
        assert alert.source == "fleet-shard-0"
        assert alert.timestamp >= trace[self.KILL_AT - 1].timestamp
        named = int(re.search(r"(\d+) packet\(s\)", alert.detail).group(1))
        assert 0 < named == lost <= stats.dispatched
        assert stats.alerts == len(alerts)

    @pytest.mark.parametrize("options", [dict(watchdog_timeout=30.0),
                                         dict(snapshot_at=400)],
                             ids=["watchdog", "after-snapshot"])
    def test_with_a_replay_log_the_stream_is_whole_and_silent(
            self, trace, serial_alerts, options):
        alerts, stats, lost = self._run(trace, **options)
        assert stats.watchdog_restarts == 1
        assert lost == 0
        assert sorted(map(_alert_key, alerts)) == \
            sorted(map(_alert_key, serial_alerts))


class TestReload:
    def test_fleet_hot_reload_changes_verdicts(self):
        with SensorFleet(workers=2, batch_size=1, template_set="xor-only",
                         nids_options=dict(classification_enabled=False)) \
                as fleet:
            assert fleet.process_packet(_execve_packet(sport=7200)) == []
            assert fleet.flush() == []
            assert fleet.reload_template_set("paper") is True
            alerts = fleet.process_packet(_execve_packet(sport=7201))
            alerts += fleet.flush()
        assert [a.template for a in alerts] == ["linux_shell_spawn"]

    def test_same_set_reload_is_noop(self):
        with SensorFleet(workers=2, template_set="paper") as fleet:
            assert fleet.reload_template_set("paper") is False


class TestConfig:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SensorFleet(workers=0)

    def test_stats_shape(self):
        with SensorFleet(workers=2, batch_size=4,
                         nids_options=dict(classification_enabled=False)) \
                as fleet:
            for i in range(5):
                fleet.process_packet(_execve_packet(sport=7300 + i))
            fleet.flush()
            stats = fleet.stats
        assert stats.workers == 2
        assert stats.dispatched == 5
        assert stats.batches >= 2  # batch_size=4 → at least 2 shipments
