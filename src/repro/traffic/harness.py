"""The latency-under-load harness: open-loop traffic against a cluster.

The open-loop driver on a :class:`~repro.cluster.deployment.Deployment`
(one server stack, or K routed ones): it replaces the per-client
synchronous drivers with

    aggregates (open-loop arrivals, bounded windows)
        -> ConnectionMux (watermark + token bucket admission)
            -> shared PolicySessions / scatter-gather routers (QPs)
                -> server stack(s)

and measures what closed loops cannot: *sojourn time* — arrival to
completion, queueing included — at p50/p95/p99/p99.9, offered-versus-
achieved throughput, and shed accounting at every layer.

Determinism contract: every stream is named off the one experiment
seed — ``aggregate-{i}``:{arrivals,tenants,users,workload} for the
open-loop side, ``traffic-session-{i}`` (forked per shard via
``rngs.shard(k)`` when sharded) for the session side — so arrival
schedules are bit-identical across deployments with different shard
counts, and a whole run replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..cluster.config import ExperimentConfig
from ..cluster.deployment import Deployment
from ..cluster.results import TO_US, RunResult
from ..cluster.schemes import TRANSPORT_TCP, scheme_spec
from ..obs import LatencyView
from ..sim.kernel import all_of
from ..sim.monitor import LatencyRecorder
from ..workloads.scales import scale_generator
from .aggregate import AggregateClient
from .arrivals import aggregate_generator
from .config import TrafficConfig
from .mux import ConnectionMux, TokenBucket

#: Simulated slack past the offered window for the backlog to drain.
DRAIN_GRACE_S = 20e-3


@dataclass
class TrafficResult:
    """Everything one open-loop run measured."""

    scheme: str
    fabric: str
    n_shards: int
    kind: str
    offered_rps: float
    achieved_rps: float
    duration_s: float
    elapsed_s: float

    arrivals: int
    admitted: int
    completed: int
    failed: int
    shed_window: int
    shed_watermark: int
    shed_admission: int
    server_shed: int

    users_total: int
    users_touched: int

    # Sojourn time (arrival -> completion), microseconds.
    sojourn_mean_us: float
    sojourn_p50_us: float
    sojourn_p95_us: float
    sojourn_p99_us: float
    sojourn_p999_us: float

    server_cpu_utilization: float
    per_tenant: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)
    #: The run in the closed-loop result shape (CLI/compare), from the
    #: shared collector: sojourn time as latency, the sessions'
    #: offload/torn/restart counters, server bandwidth.
    run_result: Optional[RunResult] = None

    @property
    def shed_client_total(self) -> int:
        return self.shed_window + self.shed_watermark + self.shed_admission

    @staticmethod
    def header() -> str:
        return (f"{'offered/s':>10} {'achieved/s':>10} {'done':>8} "
                f"{'fail':>6} {'shed':>7} {'p50us':>8} {'p99us':>9} "
                f"{'p999us':>9} {'cpu':>6}")

    def row(self) -> str:
        return (f"{self.offered_rps:>10.0f} {self.achieved_rps:>10.0f} "
                f"{self.completed:>8} {self.failed:>6} "
                f"{self.shed_client_total:>7} {self.sojourn_p50_us:>8.1f} "
                f"{self.sojourn_p99_us:>9.1f} {self.sojourn_p999_us:>9.1f} "
                f"{self.server_cpu_utilization * 100:>5.1f}%")

class TrafficRunner(Deployment):
    """Builds one open-loop deployment for a config and runs it.

    More than one shard routes the mux sessions through scatter-gather
    routers; a single server is driven through plain sessions.
    """

    def __init__(self, config: ExperimentConfig, record: bool = False):
        if config.traffic is None:
            raise ValueError("config.traffic must be set for TrafficRunner")
        spec = scheme_spec(config.scheme)
        if spec.transport == TRANSPORT_TCP:
            raise ValueError(
                "the traffic layer multiplexes fast-messaging/offload "
                f"sessions; scheme {config.scheme!r} is TCP-based"
            )
        super().__init__(config,
                         routed=(config.n_shards or spec.shards) > 1)
        self.traffic: TrafficConfig = config.traffic
        for i in range(self.traffic.sessions):
            self.add_client(i, f"traffic-session-{i}")
        self.start()
        self.session_stats = self.client_stats

        bucket = None
        if self.traffic.admit_rate is not None:
            bucket = TokenBucket(self.traffic.admit_rate,
                                 self.traffic.admit_burst)
        self.mux = ConnectionMux(
            self.sim, self.clients, self.traffic.queue_watermark,
            bucket=bucket, record=record,
        )

        self.sojourn = LatencyRecorder()
        self.tenant_sojourn = {
            name: LatencyRecorder() for name in self.traffic.tenant_names
        }
        scale_gen = scale_generator(config.scale)
        hotspots = None
        if self.traffic.hotspot_skew:
            from ..workloads.skew import HotspotQueries
            hotspots = HotspotQueries(seed=0)  # shared across aggregates
        self.aggregates: List[AggregateClient] = []
        for a in range(self.traffic.n_aggregates):
            arngs = self.rngs.fork(f"aggregate-{a}")
            self.aggregates.append(AggregateClient(
                self.sim, a,
                n_users=self.traffic.users_per_aggregate,
                window=self.traffic.window,
                generator=aggregate_generator(self.traffic, arngs),
                users_rng=arngs.stream("users"),
                workload_rng=arngs.stream("workload"),
                scale_gen=scale_gen,
                mux=self.mux,
                sojourn=self.sojourn,
                tenant_sojourn=self.tenant_sojourn,
                hotspots=hotspots,
            ))
        self._register_traffic_metrics()

    def _register_traffic_metrics(self) -> None:
        m = self.metrics
        self.mux.register_metrics(m)
        m.register_counters("traffic", self.aggregates)
        m.expose("traffic.in_flight",
                 lambda: sum(a.in_flight for a in self.aggregates))

    # -- execution ---------------------------------------------------------

    def run(self) -> TrafficResult:
        sim = self.sim
        duration = self.traffic.duration_s
        drivers = [
            sim.process(agg.run(duration), name=f"aggregate-{agg.aggregate_id}")
            for agg in self.aggregates
        ]
        limit = duration + DRAIN_GRACE_S
        sim.run_until_triggered(all_of(sim, drivers), limit=limit)
        self.mux.close()
        sim.run_until_triggered(all_of(sim, self.mux.dispatchers),
                                limit=limit)
        # Finish any in-flight migration so no deployment ends with an
        # item transiently on two shards (foreground accounting below
        # only reads per-request records, so this is free).
        self.settle()
        return self._collect()

    def _collect(self) -> TrafficResult:
        config, traffic = self.config, self.traffic
        self.metrics.adopt(
            "traffic.sojourn_us",
            LatencyView(self.sojourn, scale=TO_US, unit="us", loop="open"),
        )
        for name, rec in self.tenant_sojourn.items():
            self.metrics.adopt(
                f"traffic.sojourn_us.{name}",
                LatencyView(rec, scale=TO_US, unit="us", loop="open"),
            )
        arrivals = sum(a.arrivals for a in self.aggregates)
        shed_window = sum(a.shed_window for a in self.aggregates)
        users_touched = sum(a.users_touched for a in self.aggregates)
        mux = self.mux
        server_shed = sum(
            s.fm_server.requests_shed for s in self.stacks
            if s.fm_server is not None
        )
        achieved_rps = mux.completed / traffic.duration_s
        run_result = self.collect(
            self.sojourn, self.sojourn, arrivals, self.sim.now,
            achieved_rps / 1e3, traffic.n_aggregates,
            meta={
                "loop": "open",
                "arrival_kind": traffic.kind,
                "offered_rps": traffic.rate,
                "duration_s": traffic.duration_s,
                "n_aggregates": traffic.n_aggregates,
                "users_per_aggregate": traffic.users_per_aggregate,
                "n_shards": self.n_shards,
                "sessions": traffic.sessions,
            },
            extra={
                "completed": float(mux.completed),
                "failed": float(mux.failed),
                "shed_client": float(shed_window + mux.shed_watermark
                                     + mux.shed_admission),
                "shed_server": float(server_shed),
                "users_touched": float(users_touched),
                "n_shards": float(self.n_shards),
            },
        )
        per_tenant = {
            name: {
                "count": float(rec.count),
                "p50_us": rec.percentile(50) * TO_US,
                "p99_us": rec.percentile(99) * TO_US,
            }
            for name, rec in self.tenant_sojourn.items()
        }
        return TrafficResult(
            scheme=config.scheme,
            fabric=config.fabric,
            n_shards=self.n_shards,
            kind=traffic.kind,
            offered_rps=traffic.rate,
            achieved_rps=achieved_rps,
            duration_s=traffic.duration_s,
            elapsed_s=self.sim.now,
            arrivals=arrivals,
            admitted=mux.admitted,
            completed=mux.completed,
            failed=mux.failed,
            shed_window=shed_window,
            shed_watermark=mux.shed_watermark,
            shed_admission=mux.shed_admission,
            server_shed=server_shed,
            users_total=traffic.total_users,
            users_touched=users_touched,
            sojourn_mean_us=run_result.mean_latency_us,
            sojourn_p50_us=run_result.p50_latency_us,
            sojourn_p95_us=self.sojourn.percentile(95) * TO_US,
            sojourn_p99_us=run_result.p99_latency_us,
            sojourn_p999_us=run_result.p999_latency_us,
            server_cpu_utilization=run_result.server_cpu_utilization,
            per_tenant=per_tenant,
            metrics=run_result.metrics,
            run_result=run_result,
        )


def run_traffic(config: ExperimentConfig,
                record: bool = False) -> TrafficResult:
    """Build, run, collect one open-loop point."""
    return TrafficRunner(config, record=record).run()


def run_traffic_experiment(config: ExperimentConfig) -> RunResult:
    """The :func:`~repro.cluster.builder.run_experiment` dispatch target."""
    return run_traffic(config).run_result


def rate_sweep(config: ExperimentConfig,
               rates: List[float]) -> List[TrafficResult]:
    """One fresh deployment per offered rate (identical otherwise)."""
    if config.traffic is None:
        raise ValueError("config.traffic must be set for a rate sweep")
    results = []
    for rate in rates:
        point = replace(config.traffic, rate=rate)
        results.append(run_traffic(replace(config, traffic=point)))
    return results
