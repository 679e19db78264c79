"""One Catfish deployment: K server stacks, their clients, one collector.

Catfish is one deployment shape — an R-tree server with a fast-messaging
front end and heartbeats, plus clients that pick a path per request with
Algorithm 1 (§IV–V).  :class:`Deployment` assembles it once for every
driver: the closed loop (:class:`~repro.cluster.builder.ExperimentRunner`,
routed in :class:`~repro.shard.deploy.ShardedExperimentRunner`), the open
loop (:class:`~repro.traffic.harness.TrafficRunner`) and the single-server
chaos scenarios (:func:`~repro.faults.scenarios.run_scenario`).

Determinism contract: a direct client draws from ``rngs.fork(salt)``, a
routed one from ``rngs.shard(k).fork(salt)`` against shard ``k``, where
``salt`` names the client (``client-{i}`` closed loop,
``traffic-session-{i}`` open loop).  Shard-side streams come from
``rngs.shard(k)`` only, so changing the shard count never perturbs
another shard's draws.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from ..client.base import CLIENT_COUNTER_FIELDS, ClientStats
from ..faults.injector import FaultInjector
from ..faults.plan import ShardLoss
from ..hw.host import Host
from ..net.fabric import profile_by_name
from ..obs import NULL_TRACER, MetricsRegistry, Tracer, snapshot_document
from ..rtree import batch as _scan_kernel
from ..runtime.factory import SessionFactory
from ..runtime.policy import (
    FAST_MESSAGING,
    OFFLOADING,
    Algorithm1Policy,
    BanditPolicy,
)
from ..runtime.stack import ServerStack
from ..sim.kernel import Simulator
from ..sim.monitor import LatencyRecorder
from ..sim.rng import RngRegistry
from ..workloads.datasets import uniform_dataset
from .config import ExperimentConfig
from .results import RunResult, merge_client_stats, summarize
from .schemes import TRANSPORT_TCP, scheme_spec

if TYPE_CHECKING:
    from ..shard.partition import Partition, ShardMap
    from ..shard.rebalance import RebalanceController, RebalanceStats
    from ..shard.router import RouterStats, ScatterGatherRouter

#: Client-side counters summed cluster-wide, by owner: offload engines,
#: their node caches, Algorithm 1 and bandit policies.
OFFLOAD_FIELDS = ("meta_reads", "stale_root_detections", "chunks_fetched")
CACHE_FIELDS = ("hits", "misses", "invalidations", "coalesced_reads",
                "stores", "evictions", "hint_flushes")
ADAPTIVE_AGGREGATE_FIELDS = (
    "busy_observations", "backoff_extensions",
    "heartbeats_consumed", "heartbeats_missing",
    "decisions_offload", "decisions_fm",
    "stale_resets", "offload_failovers",
)
BANDIT_FIELDS = ("offload_failovers", "breaker_demotions", "explorations")


def expose_sums(metrics: MetricsRegistry, prefix: str, owners,
                fields) -> None:
    """One pull gauge ``{prefix}.{field}`` per field, summed over
    ``owners``."""
    for field in fields:
        metrics.expose(
            f"{prefix}.{field}",
            lambda f=field: sum(int(getattr(o, f)) for o in owners),
        )


def register_session_aggregates(metrics: MetricsRegistry,
                                sessions) -> None:
    """Sum per-session client counters into cluster-wide pull gauges.

    Covers the offload engines, their node caches and the Algorithm 1 /
    bandit policies, whatever the deployment shape.
    """
    engines = [e for e in (getattr(s, "engine", None) for s in sessions)
               if e is not None]
    caches = [e.cache for e in engines
              if getattr(e, "cache", None) is not None]
    policies = [getattr(s, "policy", None) for s in sessions]
    adaptive = [p for p in policies if isinstance(p, Algorithm1Policy)]
    bandits = [p for p in policies if isinstance(p, BanditPolicy)]
    for prefix, owners, fields in (
        ("offload", engines, OFFLOAD_FIELDS),
        ("cache", caches, CACHE_FIELDS),
        ("adaptive", adaptive, ADAPTIVE_AGGREGATE_FIELDS),
        ("bandit", bandits, BANDIT_FIELDS),
    ):
        if owners:
            expose_sums(metrics, prefix, owners, fields)
    if caches:
        metrics.expose("cache.resident_nodes",
                       lambda: sum(len(c) for c in caches))
    for arm in (FAST_MESSAGING, OFFLOADING) if bandits else ():
        metrics.expose(
            f"bandit.mode_{arm}",
            lambda a=arm: sum(p.mode_counts[a] for p in bandits),
        )


class _ShardHeartbeatHook:
    """Per-shard heartbeat suppression hook.

    A lost shard's heartbeat must go silent (the machine is gone), while
    global :class:`~repro.faults.plan.HeartbeatBlackout` windows keep
    applying to every shard — this hook composes the two on behalf of one
    shard's :class:`~repro.server.heartbeat.HeartbeatService`.
    """

    def __init__(self, sim: Simulator, shard_id: int,
                 loss_windows, injector: FaultInjector):
        self.sim = sim
        self.loss_windows = [
            w for w in loss_windows
            if not w.shard_ids or shard_id in w.shard_ids
        ]
        self.injector = injector

    def heartbeat_suppressed(self) -> bool:
        now = self.sim.now
        for window in self.loss_windows:
            if window.active(now):
                self.injector.beats_blacked_out += 1
                return True
        return self.injector.heartbeat_suppressed()


class Deployment:
    """The simulator, RNGs, metrics, tracer, fault injector, dataset,
    server stacks and client sessions of one run.

    ``routed`` puts ``config.n_shards`` (or the scheme's default) server
    stacks — with the STR partition, the shard map and, when enabled, the
    rebalancer — behind one scatter-gather router per client; otherwise
    every client holds one session against the single stack.  ``record``
    makes the routers log every routed result (the oracle hook).  A
    driver calls :meth:`add_client` once per client, spawning its own
    processes in between, then :meth:`start`.
    """

    def __init__(self, config: ExperimentConfig, routed: bool = False,
                 record: bool = False):
        self.config = config
        self.spec = scheme_spec(config.scheme)
        self.profile = profile_by_name(config.fabric)
        if routed and self.spec.transport == TRANSPORT_TCP:
            raise ValueError(
                f"scheme {config.scheme!r} is TCP-based; sharding needs an "
                "RDMA scheme (fast-messaging rings per shard)"
            )
        if self.spec.transport != TRANSPORT_TCP and not self.profile.rdma:
            raise ValueError(
                f"scheme {config.scheme!r} needs an RDMA fabric, "
                f"got {config.fabric!r}"
            )
        self.routed = routed
        self.record = record
        self.n_shards = (config.n_shards or self.spec.shards) if routed else 1
        if self.n_shards < 1:
            raise ValueError(f"need >= 1 shard, got {self.n_shards}")

        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        self.metrics = MetricsRegistry()
        self.tracer = (
            Tracer(self.sim, max_events=config.trace_max_events,
                   components=config.trace_components)
            if config.trace else NULL_TRACER
        )
        self.injector: Optional[FaultInjector] = None
        if config.fault_plan:
            self.injector = FaultInjector(
                self.sim, config.fault_plan,
                rng=self.rngs.stream("faults"),
            )

        items = config.dataset
        if items is None:
            items = uniform_dataset(config.dataset_size, seed=config.seed)
        self.dataset = items

        self.partition: Optional[Partition] = None
        self.live_map: Optional[ShardMap] = None
        self.rebalancer: Optional[RebalanceController] = None
        self.rebalance_stats: Optional[RebalanceStats] = None
        if routed:
            # Imported here: repro.shard builds on this package.
            from ..shard.partition import partition_str
            from ..shard.rebalance import RebalanceController, RebalanceStats
            # The union of the shard slices is exactly the dataset,
            # which keeps a single bulk-loaded tree a valid oracle.
            partition = self.partition = partition_str(items, self.n_shards)
            self.stacks = [
                ServerStack(
                    self.sim, self.profile, self.spec, config,
                    self.rngs.shard(k), list(slice_items),
                    name=f"shard{k}-server",
                )
                for k, slice_items in enumerate(partition.assignments)
            ]
            rb = config.rebalance
            if rb is not None:
                # Elastic plane: every client routes through ONE shared
                # epoch-versioned map the rebalancer revises.
                self.live_map = partition.shard_map.copy()
                self.rebalance_stats = RebalanceStats()
                self.rebalancer = RebalanceController(
                    self.sim, self.live_map, self.stacks, rb,
                    stats=self.rebalance_stats,
                )
        else:
            self.stacks = [ServerStack(
                self.sim, self.profile, self.spec, config, self.rngs, items,
            )]
        #: The single server of a direct deployment (None when routed).
        self.server = None if routed else self.stacks[0].server
        if self.injector is not None:
            loss_windows = self.injector.plan.of_type(ShardLoss)
            for k, stack in enumerate(self.stacks):
                stack.attach_injector(
                    self.injector,
                    heartbeat_hook=(
                        _ShardHeartbeatHook(self.sim, k, loss_windows,
                                            self.injector)
                        if routed else None
                    ),
                )

        self.factory = SessionFactory(self.sim, self.spec, config,
                                      self.tracer)
        self.client_stats: List[ClientStats] = []
        #: Direct: one session per client.  Routed: per client, the list
        #: of its per-shard sessions (``sessions[client][shard]``).
        self.sessions: List[Any] = []
        self.routers: List[ScatterGatherRouter] = []
        self.router_stats: List[RouterStats] = []

    @property
    def shards(self) -> List[ServerStack]:
        """The server stacks, under their sharded-deployment name."""
        return self.stacks

    @property
    def clients(self) -> List[Any]:
        """What each client issues its requests through: its session,
        or its router when routed."""
        return self.routers if self.routed else self.sessions

    # -- construction ------------------------------------------------------

    def add_client(self, client_id: int, salt: str):
        """Connect one client named ``salt``; returns its session/router.

        The client's host is named ``salt`` and its RNG registry is
        forked by it (per shard when routed).  Drivers call this once per
        client, in client order, before :meth:`start`.
        """
        config = self.config
        host = Host(self.sim, salt, self.profile, cores=config.client_cores)
        stats = ClientStats()
        self.client_stats.append(stats)
        if not self.routed:
            client = self.factory.build(client_id, self.stacks[0], host,
                                        stats, self.rngs.fork(salt))
            self.sessions.append(client)
            return client
        from ..shard.partition import ShardMap
        from ..shard.router import RouterStats, ScatterGatherRouter
        router_stats = RouterStats()
        shard_map = self.live_map
        if shard_map is None:
            # Static plane: each client keeps its own map copy
            # (note_insert is client-local routing state, like a real
            # client cache).
            assert self.partition is not None
            shard_map = ShardMap(list(self.partition.shard_map))
        # Sessions are per stack, so they survive every map revision.
        sessions = [
            self.factory.build(client_id, stack, host, stats,
                               self.rngs.shard(k).fork(salt))
            for k, stack in enumerate(self.stacks)
        ]
        router = ScatterGatherRouter(
            self.sim, shard_map, sessions, stats,
            router_stats=router_stats,
            breaker_params=config.breaker,
            record=self.record,
            epoch_aware=self.rebalancer is not None,
        )
        self.sessions.append(sessions)
        self.router_stats.append(router_stats)
        self.routers.append(router)
        return router

    def start(self) -> None:
        """Start faults, heartbeats and the rebalancer; register metrics.

        Called once every client is connected, so worker-crash faults see
        every connection and every mailbox gets the first heartbeat.
        """
        stacks = self.stacks
        if self.injector is not None:
            # Storm targets re-resolve the roots per window, so splits
            # are tolerated.
            self.injector.start(
                fm_server=stacks[0].fm_server if len(stacks) == 1 else None,
                storm_targets=lambda: [s.server.tree.root for s in stacks],
                shard_fm_servers=[s.fm_server for s in stacks],
            )
        for stack in stacks:
            if stack.heartbeats is not None:
                stack.heartbeats.start()
        if self.rebalancer is not None:
            self.rebalancer.start()
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Hook every component into the metrics registry.

        Server-side objects register their own counters (prefixed
        ``shard{k}.`` when routed, with cluster-wide sums under the
        single-server names); client-side counters are per client, so
        they are summed into pull gauges.
        """
        m = self.metrics
        if self.routed:
            m.expose("shard.n_shards", lambda: self.n_shards)
            for k, stack in enumerate(self.stacks):
                stack.register_metrics(m, label=f"shard{k}")
            expose_sums(m, "server", [s.server for s in self.stacks],
                        ("searches_served", "inserts_served"))
            m.expose("server.cpu_utilization", self.cpu_utilization)
            m.expose("net.server_bandwidth_gbps", self.bandwidth_gbps)
            from ..shard.router import RouterStats
            expose_sums(m, "router", self.router_stats,
                        RouterStats.FIELDS + RouterStats.REBALANCE_FIELDS)
        else:
            self.stacks[0].register_metrics(m)
        if self.injector is not None:
            self.injector.register_metrics(m)
        # Which scan kernel the whole run (server trees + offload views)
        # is using: 1 = numpy broadcasts, 0 = the pure-Python fallback.
        m.expose(
            "rtree.scan_kernel_numpy",
            lambda: 1 if _scan_kernel.kernel_name() == "numpy" else 0,
        )
        expose_sums(m, "client", self.client_stats, CLIENT_COUNTER_FIELDS)
        rebalancer = self.rebalancer
        if rebalancer is not None:
            rebalancer.stats.register_into(m)
            m.expose("shard.map_epoch", lambda: rebalancer.shard_map.epoch)
            m.expose("shard.tiles", lambda: len(rebalancer.shard_map.tiles))
        register_session_aggregates(
            m, [s for per_client in self.sessions for s in per_client]
            if self.routed else self.sessions)

    # -- execution ---------------------------------------------------------

    def settle(self) -> None:
        """Let an in-flight migration finish after the drivers are done.

        Foreground accounting is frozen by the driver before this runs;
        it only drives the rebalancer's remaining copy/drain/delete work,
        so no run ends with an item transiently on two shards (the
        conservation checks depend on that).
        """
        rebalancer = self.rebalancer
        if rebalancer is None:
            return
        rebalancer.stop()
        step = max(rebalancer.config.interval, rebalancer.config.drain_s)
        for _ in range(10_000):
            if not rebalancer.active_migrations:
                return
            self.sim.run(until=self.sim.now + step)
        raise RuntimeError("rebalancer failed to settle")

    # -- server-side totals --------------------------------------------------

    def cpu_utilization(self) -> float:
        """Mean server CPU utilization over the stacks."""
        return (sum(s.host.cpu.utilization() for s in self.stacks)
                / len(self.stacks))

    def bandwidth_gbps(self) -> float:
        """Server link bandwidth summed over the stacks."""
        return sum(s.network.server_bandwidth_gbps() for s in self.stacks)

    # -- the result collector ------------------------------------------------

    def collect(
        self,
        latency: LatencyRecorder,
        search_latency: LatencyRecorder,
        total_requests: int,
        elapsed_s: float,
        throughput_kops: float,
        n_clients: int,
        meta: dict,
        counters: Optional[ClientStats] = None,
        **fields,
    ) -> RunResult:
        """The run's :class:`RunResult` plus its metrics document.

        ``counters`` defaults to the merged client counters; ``meta``
        extends the document's run metadata; ``fields`` are passed on to
        :func:`~repro.cluster.results.summarize` (``extra``,
        ``timeline``).
        """
        config = self.config
        if counters is None:
            counters = merge_client_stats(self.client_stats)
        stacks = self.stacks
        doc = snapshot_document(
            self.metrics,
            tracer=self.tracer if config.trace else None,
            meta={"scheme": config.scheme, "fabric": config.fabric,
                  "seed": config.seed, **meta},
        )
        return summarize(
            scheme=config.scheme,
            fabric=config.fabric,
            n_clients=n_clients,
            total_requests=total_requests,
            elapsed_s=elapsed_s,
            throughput_kops=throughput_kops,
            latency=latency,
            search_latency=search_latency,
            counters=counters,
            cpu_utilization=self.cpu_utilization(),
            bandwidth_gbps=self.bandwidth_gbps(),
            link_bps=self.profile.bandwidth_bps * len(stacks),
            heartbeats=[s.heartbeats for s in stacks
                        if s.heartbeats is not None],
            searches_served_by_server=sum(
                int(s.server.searches_served) for s in stacks),
            inserts_served=sum(int(s.server.inserts_served) for s in stacks),
            metrics=doc,
            **fields,
        )
