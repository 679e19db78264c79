"""One server's full stack, shared by every deployment shape.

A :class:`ServerStack` assembles everything one Catfish server needs —
host + scheduler, star network, R*-tree over its data slice, the
transport front-end (TCP server or fast-messaging worker pool per the
scheme), the heartbeat service and the overload guard — exactly once.
:class:`~repro.cluster.deployment.Deployment` builds one per shard
(one for a direct deployment); RDMAvisor's argument for a single
service layer hiding RDMA deployment detail is exactly this class.

Determinism contract: all stochastic construction (the scheduler noise)
draws from the *caller's* registry — the root registry for a direct
deployment, ``rngs.shard(k)`` for shard ``k`` of a routed one.
"""

from __future__ import annotations

from typing import Optional

from ..hw.cpu import SchedulerModel
from ..hw.host import Host
from ..net.fabric import FabricProfile, Network
from ..obs.registry import MetricsRegistry
from ..server.base import RTreeServer
from ..server.fast_messaging import FastMessagingServer
from ..server.heartbeat import HeartbeatService
from ..server.tcp_server import TcpRTreeServer
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry


class ServerStack:
    """Host + network + tree + transport + heartbeat for one server."""

    def __init__(
        self,
        sim: Simulator,
        profile: FabricProfile,
        spec,
        config,
        rngs: RngRegistry,
        items,
        name: str = "server",
    ):
        self.sim = sim
        self.profile = profile
        self.spec = spec
        self.name = name
        self.network = Network(sim, profile)
        self.host = Host(
            sim,
            name,
            profile,
            cores=config.server_cores,
            scheduler=SchedulerModel(
                config.server_cores, rng=rngs.stream("scheduler")
            ),
        )
        self.network.attach_server(self.host)
        self.server = RTreeServer(
            sim,
            self.host,
            items,
            max_entries=config.max_entries,
            costs=config.costs,
            byte_mode=config.byte_mode,
        )

        self.tcp_server: Optional[TcpRTreeServer] = None
        self.fm_server: Optional[FastMessagingServer] = None
        self.heartbeats: Optional[HeartbeatService] = None
        if spec.transport == "tcp":
            self.tcp_server = TcpRTreeServer(sim, self.server)
        else:
            self.fm_server = FastMessagingServer(
                sim,
                self.server,
                self.network,
                mode=spec.notification,
                max_queue_depth=config.max_queue_depth,
            )
            if spec.heartbeats:
                cache_cfg = getattr(config, "node_cache", None)
                # With client node caches enabled, every beat piggybacks
                # the tree's mutation high-water mark as an invalidation
                # hint; otherwise keep the legacy wire format (the golden
                # fingerprints are pinned on it).
                mut_seq_fn = (
                    (lambda: self.server.tree.mut_hwm)
                    if cache_cfg is not None
                    else None
                )
                self.heartbeats = HeartbeatService(
                    sim,
                    self.host.cpu.window_utilization,
                    interval=config.heartbeat_interval,
                    mut_seq_fn=mut_seq_fn,
                )

    # -- lifecycle ---------------------------------------------------------

    def attach_injector(self, injector, heartbeat_hook=None) -> None:
        """Wire a fault injector into this stack's network/NIC/heartbeat.

        ``heartbeat_hook`` overrides the heartbeat suppression source
        (the sharded runner composes per-shard loss windows with the
        global blackout windows); by default the injector itself is
        installed.
        """
        injector.attach_network(self.network)
        injector.attach_host(self.host)
        if self.heartbeats is not None:
            if heartbeat_hook is not None:
                self.heartbeats.fault_injector = heartbeat_hook
            else:
                injector.attach_heartbeats(self.heartbeats)

    # -- occupancy ---------------------------------------------------------

    def items_held(self) -> int:
        """Exact data-item count in this stack's tree right now.

        Walks the leaf level, so it stays correct under routed writes and
        live migration (served-op counters can't distinguish a delete
        that found nothing).  The rebalance controller and the shard
        occupancy report both read this.
        """
        tree = self.server.tree
        return sum(
            len(node.entries) for node in tree.nodes.values()
            if node.level == 0
        )

    # -- metrics -----------------------------------------------------------

    def register_metrics(self, metrics: MetricsRegistry,
                         label: Optional[str] = None) -> None:
        """Register this stack's server-side metrics in ``metrics``.

        With ``label`` (e.g. ``"shard3"``) every name is prefixed so K
        stacks coexist in one registry; without it the single-server
        names (``server.*`` / ``heartbeat.*`` / ``net.*``) are used.
        """
        dot = f"{label}." if label else ""
        if self.fm_server is not None:
            self.fm_server.register_metrics(metrics, prefix=f"{dot}server")
        if self.heartbeats is not None:
            self.heartbeats.register_metrics(metrics,
                                             prefix=f"{dot}heartbeat")
        metrics.register_counters(f"{dot}server", [self.server])
        metrics.expose(f"{dot}server.items_held",
                       lambda: self.items_held())
        metrics.expose(f"{dot}server.cpu_utilization",
                       self.host.cpu.utilization)
        metrics.expose(f"{dot}net.server_bandwidth_gbps",
                       self.network.server_bandwidth_gbps)
