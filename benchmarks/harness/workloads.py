"""The six workloads and the seeded corpus builder behind them.

A corpus is a capture file plus ground truth.  Every byte comes from
``--seed``; packet *counts* are pinned below (sized once on the
2-CPU reference host to a few seconds per repetition) and never scale at
run time, so a faster sensor shows up as a higher ``pkts_per_s``, not as
a bigger corpus.  Generation happens in the driver process, before any
child is started — it is never inside a timed region.

Timestamps are ``TS_BASE_US + i * TS_STEP_US`` for record ``i``, so an
alert's timestamp names the exact record (and through the sidecar, the
labelled flow) that raised it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import adapters as sut

TS_BASE_US = 1_000_000
TS_STEP_US = 100

#: Pinned corpus sizes: 1.5-2 s per pass, so about 5 s per repetition of
#: three passes, on the 2-CPU reference host; a pass of ``attack_cold``
#: and of ``mixed`` raises at least 200 alerts, enough for a p95.
#: ``tiny`` is what test_harness.py runs.
SIZES = {
    "pinned": {
        "attack_cold": {"scanners": 200},
        "worm_replay": {"crii_hosts": 44, "poly_hosts": 4, "victims": 110},
        "benign_wire": {"packets": 68_000, "pool": 4096},
        "benign_deep": {"packets": 22_000, "payload": 5_940_000},
        "mixed": {"scanners": 72, "crii_hosts": 8, "poly_hosts": 4,
                  "victims": 48, "wire_packets": 9600, "wire_pool": 1024,
                  "deep_packets": 3600, "deep_payload": 972_000},
    },
    "tiny": {
        "attack_cold": {"scanners": 12},
        "worm_replay": {"crii_hosts": 2, "poly_hosts": 3, "victims": 6},
        "benign_wire": {"packets": 1500, "pool": 128},
        "benign_deep": {"packets": 600, "payload": 162_000},
        "mixed": {"scanners": 6, "crii_hosts": 1, "poly_hosts": 2,
                  "victims": 4, "wire_packets": 400, "wire_pool": 64,
                  "deep_packets": 200, "deep_payload": 54_000},
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str          # "serial" | "daemon" | "fleet"
    corpus: str            # key into SIZES / BUILDERS
    why: str
    classification: bool = True


WORKLOADS = [
    Workload("attack_cold", "serial", "attack_cold",
             "Unique polymorphic overflow requests, one per dark-space "
             "scanner: zero cache reuse, so disassemble, lift and match "
             "carry the wall clock."),
    Workload("worm_replay", "serial", "worm_replay",
             "CRII and polymorphic hosts replay one request to many "
             "victims: frame/IR caches hit ~100%, so extraction, "
             "reassembly and digesting dominate instead."),
    Workload("benign_wire", "serial", "benign_wire",
             "Benign packets from unsuspicious sources, half minimum-size "
             "and half 1400 B bulk: the analyzer is bypassed and pcap, "
             "decode and classify set the per-packet floor."),
    Workload("benign_deep", "serial", "benign_deep",
             "The 5.4 benign mix with classification off and a tenth of "
             "flows fragmented or re-segmented: defrag, reassembly, "
             "extraction and the prefilter dominate; any alert is false.",
             classification=False),
    Workload("service_mixed", "daemon", "mixed",
             "A blend of the four through the durable daemon: ring, "
             "write-ahead journal, delivery and checkpoints, measured "
             "from bytes in to delivered alert out."),
    Workload("fleet_mixed", "fleet", "mixed",
             "The same blend through a two-worker offset-transport "
             "fleet: dispatch, transport and merge, with worker start-up "
             "counted in setup_s."),
]

BY_NAME = {w.name: w for w in WORKLOADS}

#: Not a workload: the plain serial sensor on the mixed capture.  Its
#: alerts are what the daemon and the fleet must reproduce, and its
#: ``pkts_per_s`` is the base of ``nids.fleet.speedup_vs_serial``.
REFERENCE = Workload("serial_mixed", "serial", "mixed",
                     "Serial reference for the two mixed workloads.")

EVASIONS = ("fragment-reorder", "tcp-tiny-segments", "tcp-overlap-retransmit")


# -- corpus model -------------------------------------------------------------


@dataclass
class Corpus:
    """Records in capture order, each tagged with its labelled flow."""

    flows: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    #: (wire bytes, flow index, payload length) per record, capture order
    records: list[tuple[bytes, int, int]] = field(default_factory=list)
    _index: dict[str, int] = field(default_factory=dict)

    def flow(self, name: str, label: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.flows)
            self.flows.append(name)
            self.labels.append(label)
        return idx


def _rec(pkt, flow: int) -> tuple[bytes, int, int]:
    return pkt.encode(), flow, len(pkt.payload)


def flow_name(pkt) -> str:
    if pkt.sport is None:
        return f"{pkt.src}>{pkt.dst}/{pkt.ip.proto}"
    return f"{pkt.src}:{pkt.sport}>{pkt.dst}:{pkt.dport}/{pkt.ip.proto}"


def _tcp_flow(src, dst, sport, dport, request, mss=1460):
    """SYN, ``mss``-sized data segments, FIN: one request on the wire."""
    out = [sut.tcp_packet(src, dst, sport, dport, flags=sut.TCP_SYN, seq=100)]
    seq = 101
    for off in range(0, len(request), mss):
        chunk = request[off:off + mss]
        out.append(sut.tcp_packet(src, dst, sport, dport, payload=chunk,
                                  seq=seq))
        seq += len(chunk)
    out.append(sut.tcp_packet(src, dst, sport, dport,
                              flags=sut.TCP_FIN | sut.TCP_ACK, seq=seq))
    return out


def _scan(src, net_octet):
    """Five SYNs to distinct dark addresses: trips the default dark-space
    threshold, so the source's later payloads reach the analyzer."""
    return [sut.tcp_packet(src, f"10.66.{net_octet}.{k + 1}", 2000 + k, 80,
                           flags=sut.TCP_SYN, seq=1) for k in range(5)]


class _Attacks:
    """Seeded source of unique attack requests, cycling the families the
    paper's Tables 1 and 2 evaluate.

    About one polymorphic or metamorphic variant in a few thousand evades
    the sensor (ADMmutate seed 1008 instance 180 and metamorphic seed 457
    instance 73 on samba-trans2-bind are two), and a workload may hold no
    operation that fails.  The engines therefore keep a pinned seed,
    under which instances ``0..POOL-1`` of every family were checked
    against the sensor of the commit that defined the benchmark (README,
    "Attack pool"); ``--seed`` chooses which of them a corpus uses, and
    in which order.  A pooled instance that is missed is a regression.
    """

    FAMILIES = ("admmutate-xor", "admmutate-alt", "clet", "metamorphic",
                "table1")
    ENGINE_SEED = 1
    POOL = 200

    def __init__(self, seed: int) -> None:
        self.adm = sut.AdmMutateEngine(seed=self.ENGINE_SEED)
        self.clet = sut.CletEngine(seed=self.ENGINE_SEED)
        self.meta = sut.MetamorphicEngine(seed=self.ENGINE_SEED)
        self.shell = sut.get_shellcode("classic-execve").assemble()
        rng = random.Random(seed)
        self.order = {family: rng.sample(range(self.POOL), self.POOL)
                      for family in self.FAMILIES}

    def request(self, i: int) -> tuple[str, int, bytes]:
        """``(family, destination port, request bytes)`` of the ``i``-th
        unique request of a corpus."""
        family = self.FAMILIES[i % len(self.FAMILIES)]
        return self.pooled(family, self.order[family][
            i // len(self.FAMILIES) % self.POOL])

    def pooled(self, family: str, n: int) -> tuple[str, int, bytes]:
        """Instance ``n`` of ``family``'s pool."""
        if family.startswith("admmutate"):
            decoder = "xor" if family.endswith("xor") else "mov-or-and-not"
            code = self.adm.mutate(self.shell, instance=n, family=decoder).data
            return family, 80, sut.generic_overflow_request(code, seed=n)
        if family == "clet":
            code = self.clet.mutate(self.shell, instance=n).data
            return family, 80, sut.generic_overflow_request(code, seed=n)
        spec = sut.EXPLOITS[n % len(sut.EXPLOITS)]
        if family == "metamorphic":
            code = self.meta.mutate_source(spec.spec().source, instance=n).data
            return family, spec.port, sut.build_exploit_request(
                spec, seed=n, payload=code)
        return (f"table1-{spec.name}", spec.port,
                sut.build_exploit_request(spec, seed=n))


def _scanner_chunks(corpus: Corpus, seed: int, scanners: int, tag: int):
    """One chunk per scanner: its dark-space probes, then its one unique
    overflow request against a live server."""
    attacks = _Attacks(seed)
    chunks = []
    for i in range(scanners):
        src = f"172.{16 + tag}.{i // 250}.{i % 250 + 1}"
        chunk = []
        for pkt in _scan(src, i % 250):
            chunk.append(_rec(pkt, corpus.flow(flow_name(pkt), "benign")))
        family, port, request = attacks.request(i)
        flow = _tcp_flow(src, f"10.10.0.{5 + i % 200}", 3000, port, request)
        idx = corpus.flow(flow_name(flow[0]), f"attack:{family}")
        chunk.extend(_rec(pkt, idx) for pkt in flow)
        chunks.append(chunk)
    return chunks


def _worm_chunks(corpus: Corpus, seed: int, crii_hosts: int, poly_hosts: int,
                 victims: int, tag: int):
    """Per host: a scan chunk, then one chunk per victim replaying the
    host's single request.  Chunks are ordered victim-major, so every
    host is mid-sweep at once, as in the Table 3 traces."""
    attacks = _Attacks(seed + 1)
    hosts = []
    for h in range(crii_hosts + poly_hosts):
        src = f"172.{24 + tag}.{h // 250}.{h % 250 + 1}"
        if h < crii_hosts:
            hosts.append((src, "crii", sut.code_red_ii_request()))
        else:
            _family, _port, request = attacks.pooled(
                "admmutate-xor", attacks.order["admmutate-xor"][h])
            hosts.append((src, "admmutate-replay", request))
    chunks = []
    for h, (src, _family, _request) in enumerate(hosts):
        chunks.append([_rec(pkt, corpus.flow(flow_name(pkt), "benign"))
                       for pkt in _scan(src, 100 + h % 100)])
    for v in range(victims):
        for src, family, request in hosts:
            flow = _tcp_flow(src, f"10.10.0.{5 + v}", 4000 + v, 80, request)
            idx = corpus.flow(flow_name(flow[0]), f"attack:{family}")
            chunks.append([_rec(pkt, idx) for pkt in flow])
    return chunks


def _wire_chunks(corpus: Corpus, seed: int, packets: int, pool: int):
    """A pool of distinct benign packets cycled to ``packets`` records:
    half carry no or a minimal payload (SYN, ACK, DNS, ICMP echo), half
    are 1400 B bulk segments.  Sources are ordinary clients; nothing is
    ever forwarded past the classifier, so repeating the pool costs the
    sensor exactly what fresh packets would."""
    rng = random.Random(seed)
    bulk = bytes(rng.randrange(0x20, 0x7F) for _ in range(1400))
    entries = []
    for i in range(pool):
        client = f"192.168.{rng.randrange(4)}.{rng.randrange(2, 250)}"
        server = f"10.10.0.{rng.randrange(2, 250)}"
        sport = 1024 + i
        kind = i % 8
        if kind < 4:
            pkt = sut.tcp_packet(server, client, 80, sport, payload=bulk,
                                 seq=rng.randrange(1 << 31))
        elif kind == 4:
            pkt = sut.tcp_packet(client, server, sport, 80, flags=sut.TCP_SYN,
                                 seq=rng.randrange(1 << 31))
        elif kind == 5:
            pkt = sut.tcp_packet(client, server, sport, 80, flags=sut.TCP_ACK,
                                 seq=rng.randrange(1 << 31))
        elif kind == 6:
            query = bytes(rng.randrange(256) for _ in range(28))
            pkt = sut.udp_packet(client, server, sport, 53, query)
        else:
            pkt = sut.icmp_packet(client, server, payload=bytes(range(24)))
        entries.append(_rec(pkt, corpus.flow(flow_name(pkt), "benign")))
    return [[entries[i % pool]] for i in range(packets)]


def _deep_chunks(corpus: Corpus, seed: int, packets: int, payload: int):
    """Conversations of the 5.4 benign mix, cut off at exactly ``packets``
    records carrying close to ``payload`` bytes; every tenth conversation
    kept is rewritten by one of three reassembly-stressing transforms.

    Conversation sizes are heavy-tailed, so a fixed number of packets
    from different seeds carries payloads 25% apart, and the sensor's
    work follows the bytes.  A conversation is therefore kept only if it
    does not push the running bytes-per-packet further from the pinned
    ratio than it already is (or than 2% of the total; at least 32 KiB,
    so small corpora are not starved of whole conversations)."""
    gen = sut.BenignMixGenerator(seed=seed)
    ratio, slack = payload / packets, max(0.02 * payload, 32768)
    chunks, total, drift, kept = [], 0, 0.0, 0
    while total < packets:
        conversation = gen.generate_packets(1)
        by_src = {pkt.src: flow_name(pkt) for pkt in conversation}
        if kept % 10 == 0:
            conversation = sut.apply_evasion(
                EVASIONS[(kept // 10) % len(EVASIONS)], conversation,
                seed=seed + kept)
        change = (sum(len(pkt.payload) for pkt in conversation)
                  - ratio * len(conversation))
        if abs(drift + change) > max(abs(drift), slack):
            continue
        drift += change
        kept += 1
        chunk = [_rec(pkt, corpus.flow(by_src[pkt.src], "benign"))
                 for pkt in conversation[:packets - total]]
        total += len(chunk)
        chunks.append(chunk)
    return chunks


def _interleave(*lists):
    """Merge chunk lists proportionally, keeping each list's own order
    (a scanner's probes must precede its exploit)."""
    cursors = [0] * len(lists)
    total = sum(len(chunks) for chunks in lists)
    out = []
    for _ in range(total):
        k = min((i for i in range(len(lists)) if cursors[i] < len(lists[i])),
                key=lambda i: cursors[i] / len(lists[i]))
        out.append(lists[k][cursors[k]])
        cursors[k] += 1
    return out


def _build(corpus_name: str, seed: int, size: dict) -> Corpus:
    corpus = Corpus()
    if corpus_name == "attack_cold":
        chunks = _scanner_chunks(corpus, seed, size["scanners"], tag=0)
    elif corpus_name == "worm_replay":
        chunks = _worm_chunks(corpus, seed, size["crii_hosts"],
                              size["poly_hosts"], size["victims"], tag=0)
    elif corpus_name == "benign_wire":
        chunks = _wire_chunks(corpus, seed, size["packets"], size["pool"])
    elif corpus_name == "benign_deep":
        chunks = _deep_chunks(corpus, seed, size["packets"], size["payload"])
    elif corpus_name == "mixed":
        chunks = _interleave(
            _scanner_chunks(corpus, seed + 11, size["scanners"], tag=1),
            _worm_chunks(corpus, seed + 12, size["crii_hosts"],
                         size["poly_hosts"], size["victims"], tag=1),
            _wire_chunks(corpus, seed + 13, size["wire_packets"],
                         size["wire_pool"]),
            _deep_chunks(corpus, seed + 14, size["deep_packets"],
                         size["deep_payload"]))
    else:
        raise ValueError(f"unknown corpus {corpus_name!r}")
    for chunk in chunks:
        corpus.records.extend(chunk)
    return corpus


@dataclass
class Capture:
    """A corpus on disk: what a child process is pointed at."""

    path: str
    sha256: str
    packets: int
    payload_bytes: int
    flows: list[str]
    labels: list[str]
    #: flow index per record (record i has timestamp TS_BASE_US + i*STEP)
    record_flow: list[int]

    def flow_at(self, ts_us: int) -> int | None:
        i, rem = divmod(ts_us - TS_BASE_US, TS_STEP_US)
        if rem or not 0 <= i < len(self.record_flow):
            return None
        return self.record_flow[i]


def write_capture(corpus_name: str, seed: int, workdir: Path,
                  scale: str = "pinned") -> Capture:
    """Build a corpus from ``seed`` and write ``<corpus>.pcap`` plus its
    ``<corpus>.labels.json`` sidecar into ``workdir``."""
    corpus = _build(corpus_name, seed, SIZES[scale][corpus_name])
    path = workdir / f"{corpus_name}.pcap"
    with sut.PcapWriter(path) as writer:
        for i, (raw, _flow, _n) in enumerate(corpus.records):
            writer.write_raw((TS_BASE_US + i * TS_STEP_US) / 1e6, raw)
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    sidecar = workdir / f"{corpus_name}.labels.json"
    sidecar.write_text(json.dumps({
        "corpus": corpus_name, "seed": seed, "sha256": sha,
        "packets": len(corpus.records),
        "labels": dict(zip(corpus.flows, corpus.labels))}))
    return Capture(path=str(path), sha256=sha, packets=len(corpus.records),
                   payload_bytes=sum(n for _raw, _flow, n in corpus.records),
                   flows=corpus.flows, labels=corpus.labels,
                   record_flow=[flow for _raw, flow, _n in corpus.records])


def write_warm_capture(workdir: Path) -> Path:
    """The one benign packet a fleet is warmed with during setup."""
    path = workdir / "warm.pcap"
    with sut.PcapWriter(path) as writer:
        writer.write(sut.icmp_packet("192.168.0.9", "10.10.0.9",
                                     payload=bytes(range(24)), timestamp=1.0))
    return path
