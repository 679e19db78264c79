"""The fault injector: interprets a :class:`FaultPlan` against a cluster.

Two kinds of faults exist:

* **passive** faults are consulted from hooks on the hot paths — the
  link asks for a transfer penalty, the NIC for a read stall, the
  heartbeat service whether it is blacked out, the client driver for a
  stall.  Each hook is a single attribute check when no injector is
  attached, so the fault machinery costs nothing in fault-free runs.
* **active** faults are driven by injector-owned processes — worker
  crash/restart windows and write storms do things *to* the cluster on a
  schedule.

All stochastic choices (packet loss) draw from one seeded stream, so a
plan replays bit-identically under a fixed seed.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, List, Optional

from ..sim.kernel import Simulator
from .plan import (
    BOTH,
    ClientStall,
    FaultPlan,
    HeartbeatBlackout,
    LinkFault,
    NicReadStall,
    ShardLoss,
    WorkerCrash,
    WriteStorm,
)


class FaultInjector:
    """Applies one plan to one simulated cluster."""

    COUNTERS = (
        "packets_dropped", "latency_injections", "nic_stalls_injected",
        "beats_blacked_out", "workers_crashed", "workers_restarted",
        "write_storm_windows", "client_stalls_injected", "shards_lost",
        "shards_restored",
    )

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.plan = plan
        self.rng = rng or random.Random(0)
        # Pre-split by type: the hooks run on hot paths.
        self._link_faults: List[LinkFault] = plan.of_type(LinkFault)
        self._nic_stalls: List[NicReadStall] = plan.of_type(NicReadStall)
        self._blackouts: List[HeartbeatBlackout] = (
            plan.of_type(HeartbeatBlackout)
        )
        self._client_stalls: List[ClientStall] = plan.of_type(ClientStall)
        self._started = False
        self.packets_dropped = 0
        self.latency_injections = 0
        self.nic_stalls_injected = 0
        self.beats_blacked_out = 0
        self.workers_crashed = 0
        self.workers_restarted = 0
        self.write_storm_windows = 0
        self.client_stalls_injected = 0
        self.shards_lost = 0
        self.shards_restored = 0

    # -- passive hooks -----------------------------------------------------

    def link_penalty(self, direction: str) -> float:
        """Extra seconds a transfer waits before taking the transmitter.

        Lost packets pay one ``retransmit_delay_s`` per (geometric)
        retransmission; latency spikes add a flat delay.  Holding the
        penalty *before* the transmitter keeps the link FIFO and lets the
        delay back-pressure senders, like a real retransmission would.
        """
        now = self.sim.now
        penalty = 0.0
        for fault in self._link_faults:
            if not fault.active(now):
                continue
            if fault.direction != BOTH and fault.direction != direction:
                continue
            if fault.extra_latency_s:
                penalty += fault.extra_latency_s
                self.latency_injections += 1
            if fault.loss_prob:
                rng_random = self.rng.random
                while rng_random() < fault.loss_prob:
                    penalty += fault.retransmit_delay_s
                    self.packets_dropped += 1
        return penalty

    def nic_read_stall(self, host_name: str) -> float:
        """Extra seconds ``host_name``'s NIC takes to serve one read."""
        now = self.sim.now
        stall = 0.0
        for fault in self._nic_stalls:
            if fault.active(now) and fault.host == host_name:
                stall += fault.stall_s
        if stall:
            self.nic_stalls_injected += 1
        return stall

    def heartbeat_suppressed(self) -> bool:
        """True when the current heartbeat must be silently skipped."""
        now = self.sim.now
        for fault in self._blackouts:
            if fault.active(now):
                self.beats_blacked_out += 1
                return True
        return False

    def client_stall(self, client_id: int) -> float:
        """Stall to insert before this client's next request (0 if none)."""
        now = self.sim.now
        stall = 0.0
        for fault in self._client_stalls:
            if fault.active(now) and (
                not fault.client_ids or client_id in fault.client_ids
            ):
                stall += fault.stall_s
        if stall:
            self.client_stalls_injected += 1
        return stall

    # -- attachment --------------------------------------------------------

    def attach_network(self, network) -> None:
        """Install the loss/latency hook on the server's access link."""
        network.attach_injector(self)

    def attach_host(self, host) -> None:
        """Install the read-stall hook on ``host``'s NIC."""
        host.nic.fault_injector = self

    def attach_heartbeats(self, service) -> None:
        """Install the blackout hook on the heartbeat service."""
        service.fault_injector = self

    # -- active drivers ----------------------------------------------------

    def start(
        self,
        fm_server=None,
        storm_targets: Optional[Callable[[], list]] = None,
        shard_fm_servers: Optional[list] = None,
    ) -> None:
        """Spawn the driver processes for the plan's active faults.

        ``fm_server`` is required if the plan contains
        :class:`WorkerCrash` faults; ``storm_targets`` (a callable
        returning the nodes to poison — re-evaluated per window, so tree
        restructuring is tolerated) is required for :class:`WriteStorm`;
        ``shard_fm_servers`` (one fast-messaging server per shard, dense
        by shard id) is required for :class:`ShardLoss`.
        """
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        for fault in self.plan.of_type(WorkerCrash):
            if fm_server is None:
                raise ValueError("WorkerCrash fault needs fm_server")
            self.sim.process(self._crash_driver(fault, fm_server),
                             name="fault-crash")
        for fault in self.plan.of_type(WriteStorm):
            if storm_targets is None:
                raise ValueError("WriteStorm fault needs storm_targets")
            self.sim.process(self._storm_driver(fault, storm_targets),
                             name="fault-storm")
        for fault in self.plan.of_type(ShardLoss):
            if shard_fm_servers is None:
                raise ValueError("ShardLoss fault needs shard_fm_servers")
            self.sim.process(
                self._shard_loss_driver(fault, shard_fm_servers),
                name="fault-shard-loss",
            )

    def _crash_driver(self, fault: WorkerCrash, fm_server) -> Generator:
        sim = self.sim
        if fault.start > sim.now:
            yield sim.timeout(fault.start - sim.now)
        crashed = []
        for conn in fm_server.connections:
            if fault.conn_ids and conn.conn_id not in fault.conn_ids:
                continue
            fm_server.crash_worker(conn)
            crashed.append(conn)
            self.workers_crashed += 1
        if fault.end > sim.now:
            yield sim.timeout(fault.end - sim.now)
        for conn in crashed:
            fm_server.restart_worker(conn)
            self.workers_restarted += 1

    def _shard_loss_driver(self, fault: ShardLoss,
                           fm_servers: list) -> Generator:
        """Crash every worker of the lost shards, restore at window end.

        The shard's fabric, rings, and heartbeat service stay up — only
        request service stops — so clients experience silence, the
        hardest failure mode for a scatter-gather router to attribute.
        """
        sim = self.sim
        if fault.start > sim.now:
            yield sim.timeout(fault.start - sim.now)
        targets = (fault.shard_ids if fault.shard_ids
                   else tuple(range(len(fm_servers))))
        crashed = []
        for shard_id in targets:
            fm_server = fm_servers[shard_id]
            for conn in fm_server.connections:
                fm_server.crash_worker(conn)
                crashed.append((fm_server, conn))
                self.workers_crashed += 1
            self.shards_lost += 1
        if fault.end > sim.now:
            yield sim.timeout(fault.end - sim.now)
        for fm_server, conn in crashed:
            fm_server.restart_worker(conn)
            self.workers_restarted += 1
        for _shard_id in targets:
            self.shards_restored += 1

    def _storm_driver(self, fault: WriteStorm,
                      storm_targets: Callable[[], list]) -> Generator:
        sim = self.sim
        if fault.start > sim.now:
            yield sim.timeout(fault.start - sim.now)
        while sim.now < fault.end:
            nodes = list(storm_targets())
            for node in nodes:
                node.begin_write()
            self.write_storm_windows += 1
            try:
                yield sim.timeout(fault.hold_s)
            finally:
                for node in nodes:
                    node.end_write()
            if fault.gap_s:
                yield sim.timeout(fault.gap_s)
