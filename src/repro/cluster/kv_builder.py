"""Experiment assembly for the §VI framework extensions (B+tree, cuckoo).

Zipf-popular GET/PUT (and, for the B+tree, range-scan) workloads over the
same fabric, ring buffers and path policies as the R-tree.  The index
servers keep their own construction (the R-tree's
:class:`~repro.runtime.stack.ServerStack` is specific to the R-tree);
clients are ``PolicySession`` subclasses per index, driven by the shared
closed-loop driver and summarised by the shared result collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..btree import (
    BTreeOffloadEngine,
    BTreeService,
    KvFmSession,
    KvPolicySession,
    KvRequest,
    OP_GET,
    OP_PUT,
    OP_SCAN,
)
from ..client.base import ClientStats
from ..cuckoo import CuckooOffloadEngine, CuckooPolicySession, CuckooService
from ..hw.host import Host
from ..net.fabric import Network, profile_by_name
from ..obs import LatencyView, MetricsRegistry, snapshot_document
from ..runtime.policy import (
    AdaptiveParams,
    Algorithm1Policy,
    AlwaysFmPolicy,
    AlwaysOffloadPolicy,
    BanditPolicy,
    PathPolicy,
)
from ..server.fast_messaging import EVENT, FastMessagingServer
from ..server.heartbeat import HeartbeatService
from ..sim.kernel import Simulator, all_of
from ..sim.rng import RngRegistry
from .builder import closed_loop_driver
from .deployment import register_session_aggregates
from .results import TO_US, RunResult, merge_client_stats, summarize

KV_SCHEMES = ("fast-messaging", "rdma-offloading", "catfish",
              "catfish-bandit")
KV_INDEXES = ("btree", "cuckoo")


@dataclass
class KvExperimentConfig:
    """One KV experiment point."""

    index: str = "btree"
    scheme: str = "catfish"
    fabric: str = "ib-100g"
    n_clients: int = 8
    requests_per_client: int = 100

    # Workload: zipf-popular keys, get/put/scan mix.
    n_keys: int = 20_000
    get_fraction: float = 0.9
    scan_fraction: float = 0.0  # B+tree only
    scan_span: int = 200        # key-space width of one scan
    zipf_s: float = 0.99

    # Index parameters.
    capacity: int = 64          # B+tree node capacity
    n_buckets: Optional[int] = None  # cuckoo (default: sized for 60% load)

    server_cores: int = 28
    client_cores: int = 2
    heartbeat_interval: float = 0.5e-3
    adaptive: Optional[AdaptiveParams] = None
    seed: int = 0

    def __post_init__(self):
        if self.index not in KV_INDEXES:
            raise ValueError(f"unknown index {self.index!r}")
        if self.scheme not in KV_SCHEMES:
            raise ValueError(f"unknown kv scheme {self.scheme!r}")
        if self.index == "cuckoo" and self.scan_fraction > 0:
            raise ValueError("cuckoo hashing has no range scans")
        if not 0 <= self.get_fraction + self.scan_fraction <= 1:
            raise ValueError("get/scan fractions exceed 1")
        if self.adaptive is None:
            self.adaptive = AdaptiveParams(Inv=self.heartbeat_interval)

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client


def _kv_workload(config: KvExperimentConfig, keys, rng) -> List[KvRequest]:
    """One client's zipf-popular request stream."""
    from ..workloads.skew import ZipfSampler
    sampler = ZipfSampler(len(keys), config.zipf_s)
    requests: List[KvRequest] = []
    for _ in range(config.requests_per_client):
        roll = rng.random()
        key = keys[sampler.sample(rng)]
        if roll < config.get_fraction:
            requests.append(KvRequest(OP_GET, key=key))
        elif roll < config.get_fraction + config.scan_fraction:
            requests.append(KvRequest(
                OP_SCAN, lo=key, hi=key + config.scan_span,
                max_results=256,
            ))
        else:
            requests.append(KvRequest(OP_PUT, key=key,
                                      value=rng.randrange(1 << 30)))
    return requests


def run_kv_experiment(config: KvExperimentConfig) -> RunResult:
    """Build, run and summarize one KV experiment."""
    sim = Simulator()
    rngs = RngRegistry(config.seed)
    profile = profile_by_name(config.fabric)
    if not profile.rdma:
        raise ValueError("KV experiments run on the RDMA fabric")
    network = Network(sim, profile)
    server_host = Host(sim, "server", profile, cores=config.server_cores)
    network.attach_server(server_host)

    data_rng = rngs.stream("dataset")
    keys = sorted(data_rng.sample(range(1 << 40), config.n_keys))
    items = [(k, k ^ 0x5A5A) for k in keys]
    service: Any
    if config.index == "btree":
        service = BTreeService(sim, server_host, items,
                               capacity=config.capacity)
    else:
        n_buckets = config.n_buckets or max(
            64, int(config.n_keys / (4 * 0.6))
        )
        service = CuckooService(sim, server_host, items,
                                n_buckets=n_buckets,
                                seed=config.seed)
    fm_server = FastMessagingServer(sim, service, network, mode=EVENT)
    heartbeats = HeartbeatService(
        sim, server_host.cpu.window_utilization,
        interval=config.heartbeat_interval,
    )

    session_cls = (KvPolicySession if config.index == "btree"
                   else CuckooPolicySession)
    all_stats: List[ClientStats] = []
    sessions: List[Any] = []
    drivers = []
    for client_id in range(config.n_clients):
        host = Host(sim, f"client-{client_id}", profile,
                    cores=config.client_cores)
        conn = fm_server.open_connection(host)
        stats = ClientStats()
        fm = KvFmSession(sim, conn, client_id, stats)
        heartbeats.subscribe(
            conn.response_ring,
            lambda hb, c=conn: c.server_post_response(hb),
        )
        engine: Any
        if config.index == "btree":
            engine = BTreeOffloadEngine(
                sim, conn.client_end, service.offload_descriptor(),
                service.costs, stats,
            )
        else:
            engine = CuckooOffloadEngine(
                sim, conn.client_end, service.descriptor(),
                service.costs, stats,
            )
        client_rngs = rngs.fork(f"client-{client_id}")
        session = session_cls(
            sim, fm, engine, stats,
            _path_policy(sim, config, fm, client_rngs),
        )
        requests = _kv_workload(config, keys,
                                client_rngs.stream("workload"))
        drivers.append(sim.process(
            closed_loop_driver(sim, session, requests, stats),
            name=f"kv-client-{client_id}",
        ))
        all_stats.append(stats)
        sessions.append(session)
    heartbeats.start()

    metrics = MetricsRegistry()
    fm_server.register_metrics(metrics)
    heartbeats.register_metrics(metrics)
    metrics.expose("server.cpu_utilization", server_host.cpu.utilization)
    metrics.expose("net.server_bandwidth_gbps",
                   network.server_bandwidth_gbps)
    metrics.register_counters("client", all_stats)
    register_session_aggregates(metrics, sessions)

    sim.run_until_triggered(all_of(sim, drivers))

    merged = merge_client_stats(all_stats)
    elapsed = sim.now
    total = merged.requests_sent
    metrics.adopt("client.latency_us",
                  LatencyView(merged.latency, scale=TO_US, unit="us",
                              loop="closed"))
    scheme = f"{config.index}:{config.scheme}"
    return summarize(
        scheme=scheme,
        fabric=config.fabric,
        n_clients=config.n_clients,
        total_requests=total,
        elapsed_s=elapsed,
        throughput_kops=total / elapsed / 1e3,
        latency=merged.latency,
        search_latency=merged.search_latency,
        counters=merged,
        cpu_utilization=server_host.cpu.utilization(),
        bandwidth_gbps=network.server_bandwidth_gbps(),
        link_bps=profile.bandwidth_bps,
        heartbeats=[heartbeats],
        metrics=snapshot_document(metrics, meta={
            "scheme": scheme,
            "fabric": config.fabric,
            "n_clients": config.n_clients,
            "requests_per_client": config.requests_per_client,
            "seed": config.seed,
            "elapsed_s": elapsed,
        }),
    )


def _path_policy(sim, config: KvExperimentConfig, fm,
                 rngs: RngRegistry) -> PathPolicy:
    """The scheme's path policy for one client (the R-tree's stream
    names: ``backoff`` for Algorithm 1, ``bandit`` for the learner)."""
    if config.scheme == "fast-messaging":
        return AlwaysFmPolicy()
    if config.scheme == "rdma-offloading":
        return AlwaysOffloadPolicy()
    if config.scheme == "catfish":
        return Algorithm1Policy(sim, lambda: fm.mailbox,
                                params=config.adaptive,
                                rng=rngs.stream("backoff"))
    return BanditPolicy(rng=rngs.stream("bandit"))
