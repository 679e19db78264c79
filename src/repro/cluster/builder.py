"""The closed-loop driver: N synchronous clients against a deployment.

This is the reproduction's equivalent of the paper's test driver: on a
:class:`~repro.cluster.deployment.Deployment` it connects ``n_clients``
independent clients running the chosen scheme, lets every client issue
its request stream back-to-back (each client is synchronous, as in the
paper), and aggregates throughput/latency/utilization into a
:class:`RunResult`.
"""

from __future__ import annotations

from typing import Any, Generator, List, Sequence

from ..client.base import OP_SEARCH, ClientStats
from ..faults.injector import FaultInjector
from ..obs import LatencyView
from ..sim.kernel import Process, Simulator, all_of
from ..workloads.mixes import batch_runs, make_workload
from .config import ExperimentConfig
from .deployment import Deployment
from .results import TO_US, RunResult, merge_client_stats
from .schemes import scheme_spec


def closed_loop_driver(
    sim: Simulator,
    session,
    requests: Sequence[Any],
    stats: ClientStats,
    injector: FaultInjector = None,
    client_id: int = 0,
    batch_queries: int = 0,
) -> Generator:
    """One synchronous client: issue every request back-to-back.

    With ``batch_queries`` > 1 and a batch-capable session, runs of
    consecutive searches are grouped (``workloads.mixes.batch_runs``)
    and issued as one shared traversal; every request in a group
    records the group's wall time as its latency — that is how long the
    synchronous client actually waited for it.
    """
    batch_exec = getattr(session, "execute_search_batch", None)
    if batch_queries > 1 and batch_exec is not None:
        groups = batch_runs(requests, batch_queries)
    else:
        groups = ([request] for request in requests)
    for group in groups:
        if injector is not None:
            stall = injector.client_stall(client_id)
            if stall > 0.0:
                yield sim.timeout(stall)
        start = sim.now
        if len(group) == 1:
            yield from session.execute(group[0])
        else:
            yield from batch_exec(group)
        elapsed = sim.now - start
        for request in group:
            stats.requests_sent += 1
            stats.latency.record(elapsed)
            if request.op == OP_SEARCH:
                stats.search_latency.record(elapsed)


class ExperimentRunner(Deployment):
    """Builds the deployment for a config and runs it closed-loop.

    Every client gets its own synchronous driver process; the run ends
    when all of them finished their request streams.
    """

    #: Closed-loop clients talk to the single server directly; the
    #: sharded subclass routes them.
    routed = False

    def __init__(self, config: ExperimentConfig, record_results: bool = False):
        super().__init__(config, routed=self.routed, record=record_results)
        workload_fn = make_workload(
            config.workload_kind,
            scale_spec=config.scale,
            n_requests=config.requests_per_client,
            insert_fraction=config.insert_fraction,
            queries=config.queries,
        )
        self._drivers: List[Process] = []
        self._timeline: List[tuple] = []
        self.elapsed_at_done = 0.0
        for client_id in range(config.n_clients):
            salt = f"client-{client_id}"
            client = self.add_client(client_id, salt)
            # The workload stream never depends on the deployment shape:
            # routed runs are compared against the single-tree oracle.
            rng = self.rngs.fork(salt).stream("workload")
            requests = workload_fn(client_id, rng)
            self._drivers.append(self.sim.process(
                closed_loop_driver(self.sim, client, requests,
                                   self.client_stats[-1],
                                   injector=self.injector,
                                   client_id=client_id,
                                   batch_queries=config.batch_queries),
                name=salt,
            ))
        self.start()
        if config.collect_timeline:
            self._register_timeline()

    def _register_timeline(self) -> None:
        """Windowed samplers plus the (t, cpu, offload fraction) trace."""
        interval = self.config.heartbeat_interval
        stats_list = self.client_stats
        cpu = self.stacks[0].host.cpu
        alive = lambda: any(d.is_alive for d in self._drivers)
        self.metrics.sampler(
            self.sim, "series.cpu_utilization",
            lambda: cpu.tracker.window_utilization(reset=False),
            interval=interval, while_fn=alive,
        )
        self.metrics.sampler(
            self.sim, "series.requests_completed",
            lambda: sum(s.requests_sent for s in stats_list),
            interval=interval, while_fn=alive,
        )
        self.sim.process(self._timeline_sampler(), name="timeline")

    def _timeline_sampler(self) -> Generator:
        """Sample (t, cpu_util, window offload fraction) periodically."""
        interval = self.config.heartbeat_interval
        cpu = self.stacks[0].host.cpu
        prev_offload = prev_total = 0
        while any(d.is_alive for d in self._drivers):
            yield self.sim.timeout(interval)
            offload = sum(s.offloaded_requests
                          for s in self.client_stats)
            total = sum(
                s.offloaded_requests + s.fast_messaging_requests
                for s in self.client_stats
            )
            window_total = total - prev_total
            window_offload = offload - prev_offload
            fraction = (window_offload / window_total
                        if window_total else 0.0)
            self._timeline.append(
                (self.sim.now,
                 cpu.tracker.window_utilization(reset=False),
                 fraction)
            )
            prev_offload, prev_total = offload, total

    # -- execution ---------------------------------------------------------------

    def drive(self, limit: float = float("inf")) -> None:
        """Run until every client finished its request stream.

        Raises :class:`~repro.sim.kernel.SimulationError` when ``limit``
        simulated seconds pass first.  Foreground accounting (elapsed,
        throughput) is frozen at the moment the last driver finished.
        """
        self.sim.run_until_triggered(all_of(self.sim, self._drivers),
                                     limit=limit)
        self.elapsed_at_done = self.sim.now

    def run(self) -> RunResult:
        """Drive every client to completion, settle, collect."""
        self.drive()
        self.settle()
        return self._collect()

    def _extra(self) -> dict:
        """RunResult.extra payload (excluded from result fingerprints)."""
        return {}

    def _collect(self) -> RunResult:
        config = self.config
        elapsed = self.elapsed_at_done
        merged = merge_client_stats(self.client_stats)
        total = merged.requests_sent
        throughput_kops = (total / elapsed / 1e3) if elapsed > 0 else 0.0
        for name, recorder in (("client.latency_us", merged.latency),
                               ("client.search_latency_us",
                                merged.search_latency)):
            self.metrics.adopt(name, LatencyView(recorder, scale=TO_US,
                                                 unit="us", loop="closed"))
        return self.collect(
            merged.latency, merged.search_latency, total, elapsed,
            throughput_kops, config.n_clients,
            meta={
                "n_clients": config.n_clients,
                "n_shards": self.n_shards,
                "requests_per_client": config.requests_per_client,
                "workload": config.workload_kind,
                "elapsed_s": elapsed,
                "throughput_kops": throughput_kops,
            },
            counters=merged,
            extra=self._extra(),
            timeline=list(self._timeline),
        )


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Convenience wrapper: build, run, collect.

    Dispatches to the sharded runner when the config (or the scheme's
    default) asks for more than one shard, so ``run``/``compare`` treat
    sharded and single-server schemes uniformly.
    """
    if config.traffic is not None:
        # Open-loop traffic replaces the closed-loop client drivers
        # entirely; the traffic harness handles sharding itself.
        from ..traffic.harness import run_traffic_experiment
        return run_traffic_experiment(config)
    n_shards = config.n_shards or scheme_spec(config.scheme).shards
    if n_shards > 1:
        from ..shard.deploy import run_sharded_experiment
        return run_sharded_experiment(config)
    return ExperimentRunner(config).run()
