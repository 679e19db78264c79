"""Framework generality (paper §VI) — B+tree and cuckoo over Catfish.

Not a paper figure: the paper *claims* the framework generalizes to other
link-based structures; this bench demonstrates it quantitatively.

1. Offload profile per structure (reads per op, one-sided latency).
2. A miniature Fig-10-style comparison for the B+tree: fast messaging vs
   always-offload vs the adaptive client, under a CPU-saturating GET
   storm.
"""

import random

from conftest import print_figure

from repro import AdaptiveParams
from repro.btree import (
    BTreeOffloadEngine,
    BTreeService,
    KvFmSession,
    KvPolicySession,
    KvRequest,
    OP_GET,
)
from repro.client import ClientStats
from repro.cuckoo import CuckooOffloadEngine, CuckooService
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.runtime import Algorithm1Policy, AlwaysOffloadPolicy
from repro.server import EVENT, FastMessagingServer, HeartbeatService
from repro.sim import Simulator, all_of


def _offload_profile(structure, n_items=20_000, n_ops=200):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=8)
    net.attach_server(server_host)
    rng = random.Random(1)
    keys = rng.sample(range(10**6), n_items)
    items = [(k, k + 1) for k in keys]

    if structure == "b+tree":
        service = BTreeService(sim, server_host, items)
        fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
        conn = fm_server.open_connection(Host(sim, "c", IB_100G, cores=2))
        stats = ClientStats()
        engine = BTreeOffloadEngine(sim, conn.client_end,
                                    service.offload_descriptor(),
                                    service.costs, stats)
        reads = lambda: engine.chunks_fetched + engine.meta_reads
    else:
        service = CuckooService(sim, server_host, items, n_buckets=16_384)
        fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
        conn = fm_server.open_connection(Host(sim, "c", IB_100G, cores=2))
        stats = ClientStats()
        engine = CuckooOffloadEngine(sim, conn.client_end,
                                     service.descriptor(),
                                     service.costs, stats)
        reads = lambda: engine.buckets_fetched

    def client():
        t0 = sim.now
        for _ in range(n_ops):
            yield from engine.get(rng.choice(keys))
        return (sim.now - t0) / n_ops

    p = sim.process(client())
    sim.run_until_triggered(p)
    return {
        "latency_us": p.value * 1e6,
        "reads_per_op": reads() / n_ops,
        "server_cpu": server_host.cpu.total_work_seconds,
    }


def test_offload_profiles(benchmark):
    def run():
        return {s: _offload_profile(s) for s in ("b+tree", "cuckoo")}

    profiles = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name,
         f"{p['latency_us']:.2f}",
         f"{p['reads_per_op']:.2f}",
         f"{p['server_cpu']:.6f}"]
        for name, p in profiles.items()
    ]
    print_figure(
        "Ext  one-sided access profile per structure (1 client)",
        ["structure", "mean_us", "reads/op", "server_cpu_s"],
        rows,
    )
    # Cuckoo is a single round trip: 2 reads, well under the tree latency.
    assert profiles["cuckoo"]["reads_per_op"] == 2.0
    assert profiles["cuckoo"]["latency_us"] < profiles["b+tree"]["latency_us"]
    # Offloading never touches the server CPU, whatever the structure.
    assert all(p["server_cpu"] == 0.0 for p in profiles.values())


def _btree_cluster(scheme, n_clients=24, n_ops=120, n_items=20_000):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    rng = random.Random(2)
    keys = rng.sample(range(10**6), n_items)
    service = BTreeService(sim, server_host, [(k, k + 1) for k in keys])
    fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
    heartbeats = HeartbeatService(
        sim, server_host.cpu.window_utilization, interval=0.2e-3
    )

    all_stats = []
    drivers = []
    for i in range(n_clients):
        host = Host(sim, f"c{i}", IB_100G, cores=2)
        conn = fm_server.open_connection(host)
        stats = ClientStats()
        fm = KvFmSession(sim, conn, i, stats)
        heartbeats.subscribe(conn.response_ring,
                             lambda hb, c=conn: c.server_post_response(hb))
        engine = BTreeOffloadEngine(sim, conn.client_end,
                                    service.offload_descriptor(),
                                    service.costs, stats)
        if scheme == "fast-messaging":
            session = fm
        elif scheme == "offload":
            session = KvPolicySession(sim, fm, engine, stats,
                                      AlwaysOffloadPolicy())
        else:
            session = KvPolicySession(sim, fm, engine, stats, Algorithm1Policy(
                sim, lambda fm=fm: fm.mailbox,
                params=AdaptiveParams(N=8, T=0.95, Inv=0.2e-3),
                rng=random.Random(100 + i),
            ))
        crng = random.Random(200 + i)

        def driver(session=session, crng=crng, stats=stats):
            for _ in range(n_ops):
                t0 = sim.now
                yield from session.execute(
                    KvRequest(OP_GET, key=crng.choice(keys)))
                stats.latency.record(sim.now - t0)
                stats.requests_sent += 1

        drivers.append(sim.process(driver()))
        all_stats.append(stats)
    heartbeats.start()
    sim.run_until_triggered(all_of(sim, drivers))
    total = sum(s.requests_sent for s in all_stats)
    kops = total / sim.now / 1e3
    mean_us = (sum(sum(s.latency.samples) for s in all_stats)
               / total * 1e6)
    offloaded = sum(s.offloaded_requests for s in all_stats)
    return {"kops": kops, "mean_us": mean_us,
            "offload": offloaded / total}


def test_btree_catfish_beats_baselines(benchmark):
    def run():
        return {s: _btree_cluster(s)
                for s in ("fast-messaging", "offload", "catfish")}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, f"{r['kops']:.1f}", f"{r['mean_us']:.1f}",
         f"{r['offload'] * 100:.1f}%"]
        for name, r in results.items()
    ]
    print_figure(
        "Ext  B+tree GETs, 24 clients on a 4-core server",
        ["scheme", "kops", "mean_us", "offload"],
        rows,
    )
    assert results["catfish"]["kops"] > results["fast-messaging"]["kops"]
    assert 0.0 < results["catfish"]["offload"] < 1.0
