"""The four benchmark workloads: build, run, oracle-check, summarise.

Each workload drives the program only through its public entry points
(``ExperimentRunner``, ``ShardedExperimentRunner(record_results=True)``,
``TrafficRunner(record=True)`` and the ``repro.shard.verify`` helpers).
``build`` is the set-up (dataset, bulk load, deployment); the runner's
``run`` is the timed simulation; ``check`` replays the recorded answers against an
oracle and is never timed.  No workload issues deletes.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.client.adaptive import AdaptiveParams
from repro.client.base import OP_INSERT, OP_SEARCH
from repro.client.node_cache import NodeCacheConfig
from repro.cluster.builder import ExperimentRunner
from repro.cluster.config import ExperimentConfig, RebalanceConfig
from repro.cluster.results import result_fingerprint
from repro.rtree.bulk import bulk_load
from repro.rtree.geometry import Rect
from repro.shard.deploy import ShardedExperimentRunner
from repro.shard.verify import verify_routed_results
from repro.sim.monitor import LatencyRecorder
from repro.traffic import TrafficConfig
from repro.traffic.harness import TrafficRunner
from repro.traffic.mux import OK as JOB_OK
from repro.workloads.datasets import uniform_dataset

#: Heartbeat period shared by every workload (simulated seconds).
HEARTBEAT_S = 0.25e-3

#: Seed of every workload's request stream: arrival times, each client's
#: request order, query rectangles and inserted items.  The workload seed
#: varies the dataset instead (see :class:`Workload`).
TRACE_SEED = 0

#: A rectangle holding every item of the unit-square datasets.
EVERYWHERE = Rect(-1.0, -1.0, 2.0, 2.0)


@dataclass
class Outcome:
    """What one run of a workload produced (simulated side only)."""

    #: Requests the workload attempted (closed loop: issued; open loop:
    #: arrivals).
    attempted: int
    #: Requests that failed or were shed.
    failed: int
    #: Answers the oracle rejected.
    mismatches: int
    sim_kops: float
    sim_p50_us: float
    sim_p99_us: float
    #: Simulated latency of every completed request (seconds) and the
    #: simulated time from the start until the last request completed,
    #: which ``sim_kops`` divides by.
    latencies: List[float]
    span_s: float
    #: Kernel events the run scheduled (the kernel numbers each one).
    events: int
    #: ``result_fingerprint`` of the run (None where the runner has none).
    fingerprint: Optional[str]
    #: Workload-specific simulated counters shown beside the metrics.
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def samples(self) -> int:
        return len(self.latencies)

    @property
    def beyond_p99(self) -> int:
        return beyond(self.samples, 99)

    def sim_key(self) -> Tuple:
        """Everything that must repeat bit for bit between runs."""
        return (self.attempted, self.failed, self.mismatches,
                repr(self.sim_kops), repr(self.sim_p50_us),
                repr(self.sim_p99_us), self.samples, self.events,
                self.fingerprint,
                tuple(sorted((k, repr(v)) for k, v in self.notes.items())))


def beyond(samples: int, pct: float) -> int:
    """Samples ranked above the ``pct`` percentile."""
    return samples - -(-samples * pct // 100)


def pooled(outcomes: List[Outcome]) -> Dict[str, float]:
    """Simulated metrics over the runs of several input seeds.

    Throughput and the median pool every request: all completions over
    all simulated spans, and the p50 of every sample (the program's own
    ``LatencyRecorder.percentile``).  The tail is the median of the
    per-seed p99s: a pooled p99 is set by whichever single input had
    the worst burst.  Kernel events are summed over all requests
    attempted.  For one run these are that run's own figures.
    """
    recorder = LatencyRecorder()
    for outcome in outcomes:
        for sample in outcome.latencies:
            recorder.record(sample)
    return {
        "sim_kops": recorder.count / sum(o.span_s for o in outcomes) / 1e3,
        "sim_p50_us": recorder.percentile(50) * 1e6,
        "sim_p99_us": statistics.median(o.sim_p99_us for o in outcomes),
        "sim_events_per_req": (sum(o.events for o in outcomes)
                               / sum(o.attempted for o in outcomes)),
    }


def closed_loop_outcome(runner, result, mismatches: int,
                        notes: Dict[str, float]) -> Outcome:
    """The outcome of a closed-loop run (single server or sharded)."""
    attempted = runner.config.total_requests
    return Outcome(
        attempted=attempted,
        failed=attempted - result.total_requests,
        mismatches=mismatches,
        sim_kops=result.throughput_kops,
        sim_p50_us=result.p50_latency_us,
        sim_p99_us=result.p99_latency_us,
        latencies=[sample for stats in runner.client_stats
                   for sample in stats.latency.samples],
        span_s=result.elapsed_s,
        events=runner.sim._seq,
        fingerprint=result_fingerprint(result),
        notes=notes,
    )


def base_config(**overrides) -> ExperimentConfig:
    """The adaptive Fig-10 point every workload but one starts from."""
    settings = dict(
        scheme="catfish",
        fabric="ib-100g",
        workload_kind="search",
        scale="0.001",
        dataset_size=40_000,
        server_cores=28,
        heartbeat_interval=HEARTBEAT_S,
        adaptive=AdaptiveParams(N=8, T=0.95, Inv=HEARTBEAT_S),
        seed=TRACE_SEED,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


# -- oracles -------------------------------------------------------------------


class AnswerLog:
    """Records every request a closed-loop session is given and answers.

    Wraps the instance's ``execute``/``execute_search_batch`` (what each
    closed-loop client calls); each wrapped call is otherwise untouched,
    so the simulation is unchanged.  The class's method is looked up at
    call time, so wrappers installed on the class later still apply.  A
    request whose call raised is issued but not answered: it was never
    acknowledged.
    """

    def __init__(self):
        self.issued: List = []
        #: id(request) -> (request, answer); keyed by identity so a
        #: batch falling back to per-request ``execute`` records once.
        self.answers: Dict[int, Tuple[object, object]] = {}

    def attach(self, session) -> None:
        cls = type(session)

        def logged_execute(request):
            self.issued.append(request)
            answer = yield from cls.execute(session, request)
            self.answers[id(request)] = (request, answer)
            return answer

        session.execute = logged_execute
        if getattr(cls, "execute_search_batch", None) is None:
            return

        def logged_batch(requests):
            self.issued.extend(requests)
            answers = yield from cls.execute_search_batch(session, requests)
            for request, answer in zip(requests, answers):
                self.answers[id(request)] = (request, answer)
            return answers

        session.execute_search_batch = logged_batch

    def pairs(self) -> List[Tuple[object, object]]:
        return list(self.answers.values())

    def unique_issued(self) -> int:
        return len({id(r) for r in self.issued})


class MemoTree:
    """A reference tree that remembers its answer to each query rectangle.

    Runs of one input seed repeat their queries, so later runs check
    their answers without searching again.
    """

    def __init__(self, tree):
        self.tree = tree
        self._exact: Dict[Rect, object] = {}
        self._fast: Dict[Rect, object] = {}

    def search_via_rects(self, rect: Rect):
        found = self._exact.get(rect)
        if found is None:
            found = self._exact[rect] = self.tree.search_via_rects(rect)
        return found

    def search(self, rect: Rect):
        found = self._fast.get(rect)
        if found is None:
            found = self._fast[rect] = self.tree.search(rect)
        return found


def answer_ids(answer) -> List[int]:
    """Data ids of a search answer (a list of ``(rect, data_id)``)."""
    return sorted(data_id for _rect, data_id in answer)


def check_exact(pairs, reference) -> int:
    """Search answers that differ from ``reference.search_via_rects``.

    ``reference`` is a tree bulk-loaded from the dataset; ``pairs`` are
    ``(request, answer)``.
    """
    bad = 0
    for request, answer in pairs:
        if request.op != OP_SEARCH:
            raise ValueError(f"unexpected {request.op!r} in a search workload")
        expected = sorted(reference.search_via_rects(request.rect).data_ids)
        bad += answer_ids(answer) != expected
    return bad


def check_bracketed(pairs, inserted, reference, final_tree) -> int:
    """Oracle misses of a search+insert run.

    Each search answer must satisfy (dataset ∩ q) ⊆ answer ⊆
    ((dataset ∪ inserted) ∩ q), where ``reference`` is bulk-loaded from
    the dataset and ``inserted`` holds every insert issued.  Every insert
    that completed (is in ``pairs``) must be held by ``final_tree``.
    """
    bad = 0
    inserted_rect = {data_id: rect for rect, data_id in inserted}
    acked: List[Tuple[Rect, int]] = []
    for request, answer in pairs:
        if request.op == OP_INSERT:
            acked.append((request.rect, request.data_id))
            continue
        if request.op != OP_SEARCH:
            raise ValueError(f"unexpected {request.op!r} in a hybrid workload")
        got = answer_ids(answer)
        lower = set(reference.search(request.rect).data_ids)
        extra = set(got) - lower
        sound = len(got) == len(set(got)) and all(
            d in inserted_rect and inserted_rect[d].intersects(request.rect)
            for d in extra
        )
        bad += not (lower <= set(got) and sound)
    held = set(final_tree.search(EVERYWHERE).matches)
    bad += sum(1 for item in acked if item not in held)
    return bad


def check_jobs(runner, jobs, tree=None) -> int:
    """Routed open-loop answers checked by ``verify_routed_results``
    (against ``tree``, bulk-loaded from the dataset when None).

    The mux records finished jobs rather than per-router logs, so they
    are presented to the verifier as one router log.
    """
    log = [(i, job.request, job.results, job.t_done)
           for i, job in enumerate(jobs) if job.status == JOB_OK]
    view = SimpleNamespace(
        routers=[SimpleNamespace(log=log)],
        dataset=runner.dataset, config=runner.config,
        shards=runner.stacks, partition=runner.partition,
        n_shards=runner.n_shards, rebalancer=runner.rebalancer,
    )
    summary = verify_routed_results(view, tree=tree)
    return summary.complete_mismatches + summary.degraded_mismatches + (
        0 if summary.allow_duplicates else summary.duplicates_dropped)


# -- workloads -----------------------------------------------------------------

class Workload:
    """One named workload: ``build`` (set-up), then the runner's ``run``
    (timed), then ``check``.

    The workload seed generates the dataset, the items the index holds.
    The request stream is the workload's fixed trace (:data:`TRACE_SEED`).
    On the simulator the realisation of that stream sets the tail: drawn
    afresh per seed, the open loop's p99 and the skew run's p50 move by
    30 to 55% between seeds, while a new dataset under one stream moves
    them by 2 to 8%.

    A workload seed stands for ``SUBSEEDS`` consecutive input seeds
    (``seed * SUBSEEDS + j``), the dataset seeds of its runs; a run
    reports the simulated figures over all of them (see :func:`pooled`).
    Input seed 0 is the configuration the workload is named after.
    """

    name = ""
    why = ""
    SUBSEEDS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.subseeds = [seed * self.SUBSEEDS + j
                         for j in range(self.SUBSEEDS)]
        self._reference: Tuple[Optional[int], object] = (None, None)

    def config(self) -> ExperimentConfig:
        raise NotImplementedError

    def deploy(self, config: ExperimentConfig):
        """Assemble the deployment (the runner) for ``config``."""
        raise NotImplementedError

    def build(self, subseed: int):
        """Generate the dataset, bulk-load it and assemble the deployment."""
        config = self.config()
        config.dataset = uniform_dataset(config.dataset_size, seed=subseed)
        runner = self.deploy(config)
        runner.input_seed = subseed
        return runner

    def check(self, runner, result) -> Outcome:
        raise NotImplementedError

    def reference(self, runner):
        """The oracle tree, bulk-loaded from the runner's dataset; kept
        for the next run of the same input seed."""
        subseed, tree = self._reference
        if subseed != runner.input_seed:
            config = runner.config
            tree = MemoTree(bulk_load(config.dataset,
                                      max_entries=config.max_entries))
            self._reference = (runner.input_seed, tree)
        return tree


class ClosedLoopSingle(Workload):
    """A single-server closed loop whose answers are logged per session."""

    def deploy(self, config):
        runner = ExperimentRunner(config)
        runner.answer_log = AnswerLog()
        for session in runner.sessions:
            runner.answer_log.attach(session)
        return runner

    def outcome(self, runner, result, mismatches: int) -> Outcome:
        return closed_loop_outcome(runner, result, mismatches, notes={
            "offload_pct": result.offload_fraction * 100,
            "torn_retries": result.torn_retries,
            "search_restarts": result.search_restarts,
        })

    def unanswered(self, runner) -> int:
        log = runner.answer_log
        return runner.config.total_requests - len(log.answers) + abs(
            runner.config.total_requests - log.unique_issued())


class SearchAdaptive(ClosedLoopSingle):
    name = "search-adaptive"
    why = ("Fig-10 adaptive point: closed-loop catfish search past Algorithm "
           "1's busy threshold; loads sim, transport, server, runtime")

    def config(self):
        return base_config(n_clients=48, requests_per_client=200)

    def check(self, runner, result):
        bad = check_exact(runner.answer_log.pairs(), self.reference(runner))
        return self.outcome(runner, result, bad + self.unanswered(runner))


class HybridOffload(ClosedLoopSingle):
    name = "hybrid-offload"
    why = ("90/10 search/insert, one-sided reads racing server inserts, node "
           "cache and 8-query batches on; loads rtree, transport, net")

    def config(self):
        return base_config(
            scheme="rdma-offloading-multi", workload_kind="hybrid",
            scale="0.01", n_clients=32, requests_per_client=320,
            node_cache=NodeCacheConfig(), batch_queries=8,
        )

    def check(self, runner, result):
        log = runner.answer_log
        inserted = [(r.rect, r.data_id) for r in log.issued
                    if r.op == OP_INSERT]
        bad = check_bracketed(log.pairs(), inserted, self.reference(runner),
                              runner.server.tree)
        return self.outcome(runner, result, bad + self.unanswered(runner))


class OpenK4(Workload):
    name = "open-k4"
    why = ("open-loop Poisson 250k/s for 20 ms into catfish-sharded K=4 via "
           "an 8-session mux; loads the traffic mux and shard router")

    def config(self):
        return base_config(
            scheme="catfish-sharded", n_shards=4, server_cores=2,
            traffic=TrafficConfig(
                kind="poisson", rate=250_000.0, duration_s=20e-3,
                n_aggregates=2, users_per_aggregate=4096, sessions=8,
            ),
        )

    def deploy(self, config):
        return TrafficRunner(config, record=True)

    def check(self, runner, result):
        bad = check_jobs(runner, runner.mux.finished_jobs,
                         self.reference(runner))
        shed = result.shed_client_total + result.server_shed
        accounted = result.completed + result.failed + result.shed_client_total
        bad += accounted != result.arrivals
        return Outcome(
            attempted=result.arrivals,
            failed=result.failed + shed,
            mismatches=bad,
            sim_kops=result.completed / result.elapsed_s / 1e3,
            sim_p50_us=result.sojourn_p50_us,
            sim_p99_us=result.sojourn_p99_us,
            latencies=list(runner.sojourn.samples),
            span_s=result.elapsed_s,
            events=runner.sim._seq,
            fingerprint=None,
            notes={"offered_kops": result.offered_rps / 1e3,
                   "shed": shed},
        )


#: Controller tuning of the skew-recovery leg (split fast, demand a 2x
#: hot/mean imbalance, keep the drain short on 1-core shards).
SKEW_REBALANCE = RebalanceConfig(
    interval=0.3e-3, split_ratio=2.0, min_split_items=16, drain_s=0.1e-3,
)


def quadrant_queries(seed: int = 7, n: int = 400,
                     side: float = 0.03) -> List[Rect]:
    """``n`` fixed query squares centred in the unit square's lower-left
    quadrant, clipped to the unit square (seed 7 is the skew-recovery
    benchmark's query set)."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
        out.append(Rect(max(cx - side / 2, 0.0), max(cy - side / 2, 0.0),
                        min(cx + side / 2, 1.0), min(cy + side / 2, 1.0)))
    return out


class SkewRebalance(Workload):
    name = "skew-rebalance"
    why = ("K=4 closed loop, quadrant-skewed queries, rebalance on: the only "
           "workload that splits tiles and migrates items")
    SUBSEEDS = 6

    def config(self):
        return ExperimentConfig(
            scheme="fast-messaging-event", workload_kind="queries",
            queries=quadrant_queries(), n_clients=8, requests_per_client=800,
            dataset_size=2_000, max_entries=16, server_cores=1,
            n_shards=4, rebalance=SKEW_REBALANCE, seed=TRACE_SEED,
        )

    def deploy(self, config):
        return ShardedExperimentRunner(config, record_results=True)

    def check(self, runner, result):
        summary = verify_routed_results(runner, tree=self.reference(runner))
        logged = sum(len(router.log) for router in runner.routers)
        bad = (summary.complete_mismatches + summary.degraded_mismatches
               + (runner.config.total_requests - logged))
        return closed_loop_outcome(runner, result, bad, notes={
            "splits": result.extra.get("rebalance_splits", 0.0),
            "items_migrated": result.extra.get(
                "rebalance_items_migrated", 0.0),
        })


WORKLOADS = {w.name: w for w in (SearchAdaptive, HybridOffload, OpenK4,
                                 SkewRebalance)}
