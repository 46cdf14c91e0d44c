#!/usr/bin/env python3
"""A live NIDS sensor on a simulated network (the Figure 3 architecture).

Builds a software network with benign clients, a honeypot, and an
attacker; attaches the five-stage semantic NIDS as a passive tap; and
shows alerts arriving in real time as the attacker probes the honeypot
and then fires real exploits at a production server.

Run:  python examples/live_sensor.py [--workers N]
"""

import argparse

from repro.engines import EXPLOITS, ExploitGenerator
from repro.net.wire import Host, Wire
from repro.nids import NidsSensor, SensorOptions, build_engine
from repro.traffic import BenignMixGenerator

HONEYPOT = "10.10.0.250"
PRODUCTION_SERVER = "10.10.0.20"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=0,
                        help="analysis worker processes, sharded by flow "
                             "(0/1 = serial)")
    args = parser.parse_args(argv)

    wire = Wire()

    options = SensorOptions(
        honeypots=[HONEYPOT],
        dark_networks=["10.0.0.0/8"],
        dark_exclude=["10.10.0.0/24"],
        dark_threshold=5,
    )
    nids = build_engine("parallel" if args.workers > 1 else "serial",
                        options, workers=args.workers)
    if args.workers > 1:
        print(f"parallel engine: {args.workers} flow-sharded workers")
    sensor = NidsSensor(nids, on_alert=lambda a: print("  ALERT", a.format()))
    sensor.attach(wire)
    print(f"sensor attached; honeypot at {HONEYPOT}\n")

    print("[1] 60 benign conversations flow by...")
    benign = BenignMixGenerator(seed=3)
    packets_before = wire.packets_carried
    for _ in range(60):
        benign.conversation(wire)
    print(f"    {wire.packets_carried - packets_before} packets; "
          f"{nids.stats.payloads_analyzed} payloads analyzed, "
          f"{len(nids.alerts)} alerts\n")

    print("[2] attacker probes the honeypot (gets marked suspicious)...")
    attacker = Host(ip="203.0.113.66", wire=wire)
    probe = attacker.open_tcp(HONEYPOT, 80)
    probe.send(b"HEAD / HTTP/1.0\r\n\r\n")
    probe.close()
    print(f"    suspicious hosts: {nids.classifier.suspicious_hosts()}\n")

    print("[3] attacker fires two exploits at the production server:")
    generator = ExploitGenerator(wire, attacker_ip="203.0.113.66")
    generator.host = attacker
    for spec in (EXPLOITS[0], EXPLOITS[6]):  # one plain, one port-binding
        print(f"  firing {spec.name} at {PRODUCTION_SERVER}:{spec.port}")
        generator.fire(spec, PRODUCTION_SERVER, seed=7)
    print()

    print("[4] more benign traffic — still silent...")
    for _ in range(30):
        benign.conversation(wire)
    print()

    sensor.flush()  # drain any analysis still in flight (parallel engine)
    print("final state")
    print("-" * 64)
    print(nids.stats.summary())
    print(f"blocklist: {nids.blocklist.addresses()}")
    nids.close()
    assert nids.blocklist.is_blocked("203.0.113.66")
    assert nids.alerts_by_template().get("linux_shell_spawn") == 2
    assert nids.alerts_by_template().get("port_bind_shell") == 1


if __name__ == "__main__":
    main()
