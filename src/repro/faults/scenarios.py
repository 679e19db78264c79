"""Named chaos scenarios: faults + end-to-end invariants.

Each scenario pairs a :class:`~repro.faults.plan.FaultPlan` with a small,
self-contained simulated cluster (server, fast-messaging workers,
heartbeats, adaptive clients with retries and circuit breakers) and a
read-only search workload whose ground truth is the server tree itself —
``tree.search(rect)`` is a pure function, so every response a client
accepts can be checked exactly against the oracle.

After the run, scenario-independent invariants are evaluated:

* **completed** — every issued request finished (retries recovered every
  injected loss; nothing timed out for good or leaked an OffloadError);
* **oracle-match** — every accepted result equals the tree's answer;
* **exactly-once** — no client saw a response it could not attribute
  (late answers to abandoned attempts are *suppressed*, never delivered);
* **bounded-retries** — the retry volume stayed within the per-request
  budget (no retry storm);
* **throughput-recovered** — the post-fault completion rate came back to
  a floor fraction of the pre-fault rate;
* **fault-fired:<x>** — per scenario, the injected fault demonstrably
  happened (its injector counter advanced), so a green run can not be a
  run in which the fault silently failed to inject.

Everything is driven from seeded named streams
(:class:`~repro.sim.rng.RngRegistry`), so a scenario's
:meth:`ScenarioReport.fingerprint` is bit-identical across replays at
the same seed — that property is itself under test (``repro chaos`` and
``tests/test_chaos.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..client.base import OP_SEARCH, Request
from ..client.node_cache import NodeCacheConfig
from ..client.offload_client import OffloadError
from ..client.resilience import (
    BreakerParams,
    RequestTimeoutError,
    RetryPolicy,
)
from ..rtree.geometry import Rect
from ..runtime.policy import AdaptiveParams
from ..sim.kernel import SimulationError, all_of
from .plan import (
    BOTH,
    ClientStall,
    FaultPlan,
    HeartbeatBlackout,
    LinkFault,
    NicReadStall,
    TX,
    WorkerCrash,
    WriteStorm,
)


@dataclass(frozen=True)
class ChaosConfig:
    """Tunables shared by every scenario (overridable per scenario/CLI).

    The timing is deliberately compressed relative to the paper's
    figures: a single fault window ``[fault_start, fault_end)`` sits in
    the middle of the request stream so that every run has a clean
    pre-fault, in-fault and post-fault phase for the recovery invariant.
    The retry deadline is a small multiple of the fault-free request
    latency and much shorter than the fault window, so deadlines and
    retries are genuinely exercised (a request stuck behind a crashed
    worker times out and re-sends *during* the outage, not after it).
    """

    seed: int = 0
    n_clients: int = 4
    requests_per_client: int = 300
    dataset_size: int = 2000
    max_entries: int = 16
    server_cores: int = 4
    #: Query rectangle edge (uniform centres over the unit square).
    query_scale: float = 0.03

    #: The fault window every scenario's plan is built around.
    fault_start: float = 0.2e-3
    fault_end: float = 0.9e-3

    heartbeat_interval: float = 0.1e-3
    #: Low threshold so clients offload eagerly — both paths stay hot.
    adaptive: AdaptiveParams = AdaptiveParams(N=4, T=0.05, Inv=0.1e-3)
    retry: RetryPolicy = RetryPolicy(
        deadline_s=0.3e-3, max_attempts=6, backoff_base_s=20e-6
    )
    breaker: BreakerParams = BreakerParams(
        failure_threshold=2, cooldown_s=0.2e-3, cooldown_factor=2.0,
        max_cooldown_s=2e-3,
    )
    stale_after_missing: int = 2
    max_queue_depth: Optional[int] = None

    #: Tight offload budgets: a write storm produces OffloadErrors in
    #: microseconds instead of grinding through the default budget.
    engine_read_retries: int = 4
    engine_search_restarts: int = 3

    #: Client-side node cache under faults (None = seed behaviour; the
    #: chaos golden fingerprints are pinned on None).  Enabling it runs
    #: every scenario's oracle/invariant checks against cache-served
    #: traversals — the write-storm scenario is the cache's adversarial
    #: exactness test.
    node_cache: Optional[NodeCacheConfig] = None

    #: Simulated-time ceiling for one scenario (wedges fail, not hang).
    time_limit: float = 0.05
    #: Extra simulated time after the last driver finishes, letting
    #: late/suppressed segments drain before invariants are read.
    grace_s: float = 0.5e-3
    #: ``post_rate >= recovery_floor * pre_rate`` for recovery to hold.
    recovery_floor: float = 0.3

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client

    def experiment_config(self, **overrides):
        """The :class:`~repro.cluster.config.ExperimentConfig` a chaos
        deployment runs: this config's sizing, timing and resilience
        settings on the 100G fabric, plus ``overrides``."""
        # Imported here: the cluster layer imports repro.faults.
        from ..cluster.config import ExperimentConfig
        settings = dict(
            fabric="ib-100g",
            n_clients=self.n_clients,
            requests_per_client=self.requests_per_client,
            dataset_size=self.dataset_size,
            max_entries=self.max_entries,
            server_cores=self.server_cores,
            adaptive=self.adaptive,
            heartbeat_interval=self.heartbeat_interval,
            seed=self.seed,
            retry=self.retry,
            breaker=self.breaker,
            stale_after_missing=self.stale_after_missing,
            max_queue_depth=self.max_queue_depth,
        )
        settings.update(overrides)
        return ExperimentConfig(**settings)


@dataclass(frozen=True)
class ChaosScenario:
    """A named fault plan plus what must demonstrably fire."""

    name: str
    summary: str
    build_plan: Callable[[ChaosConfig], FaultPlan]
    #: ChaosConfig overrides this scenario needs, as (field, value).
    tweaks: Tuple[Tuple[str, object], ...] = ()
    #: Injection counters (keys of ``_FIRED_COUNTERS``) that must be > 0.
    fired_checks: Tuple[str, ...] = ()
    #: Custom harness: when set, :func:`run_scenario` hands the resolved
    #: config to this callable instead of the single-server deployment
    #: (the sharded scenarios bring their own cluster and invariants).
    runner: Optional[Callable[[ChaosConfig], "ScenarioReport"]] = None


# -- the scenario registry ---------------------------------------------------

def _link_loss_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        LinkFault(cfg.fault_start, cfg.fault_end, direction=BOTH,
                  loss_prob=0.3, retransmit_delay_s=30e-6),
    ))


def _latency_spike_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        LinkFault(cfg.fault_start, cfg.fault_end, direction=TX,
                  extra_latency_s=60e-6),
    ))


def _nic_stall_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        NicReadStall(cfg.fault_start, cfg.fault_end, host="server",
                     stall_s=10e-6),
    ))


def _worker_crash_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((WorkerCrash(cfg.fault_start, cfg.fault_end),))


def _blackout_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((HeartbeatBlackout(cfg.fault_start, cfg.fault_end),))


def _write_storm_plan(cfg: ChaosConfig) -> FaultPlan:
    # The hold must outlast a full offload retry budget (~36us with the
    # chaos engine budgets) or every search squeaks through on the gap.
    return FaultPlan((
        WriteStorm(cfg.fault_start, cfg.fault_end, hold_s=250e-6,
                   gap_s=8e-6),
    ))


def _slow_client_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        ClientStall(cfg.fault_start, cfg.fault_end, client_ids=(0, 1),
                    stall_s=0.15e-3),
    ))


def _shard_loss_plan(cfg: ChaosConfig) -> FaultPlan:
    from ..shard.chaos import shard_loss_plan
    return shard_loss_plan(cfg)


def _shard_loss_runner(cfg: ChaosConfig) -> "ScenarioReport":
    # Imported lazily: repro.shard builds on the cluster layer, which
    # imports repro.faults — a module-level import would be a cycle.
    from ..shard.chaos import run_shard_loss
    return run_shard_loss(cfg)


def _rebalance_fault_plan(cfg: ChaosConfig) -> FaultPlan:
    from ..shard.chaos import rebalance_fault_plan
    return rebalance_fault_plan(cfg)


def _rebalance_under_fault_runner(cfg: ChaosConfig) -> "ScenarioReport":
    # Lazy import for the same cycle reason as the shard-loss runner.
    from ..shard.chaos import run_rebalance_under_fault
    return run_rebalance_under_fault(cfg)


def _racing_writes_plan(cfg: ChaosConfig) -> FaultPlan:
    # The workload races the migration windows; no injector faults.
    return FaultPlan(())


def _racing_writes_runner(cfg: ChaosConfig) -> "ScenarioReport":
    from ..shard.chaos import run_migration_racing_writes
    return run_migration_racing_writes(cfg)


def _flash_crowd_plan(cfg: ChaosConfig) -> FaultPlan:
    # The workload *is* the fault: the arrival rate spikes inside the
    # fault window.  No injector faults are planned.
    return FaultPlan(())


def _flash_crowd_runner(cfg: ChaosConfig) -> "ScenarioReport":
    # Lazy for the same reason as the shard runner: the traffic harness
    # builds on the cluster layer, which imports repro.faults.
    from ..traffic.chaos import run_flash_crowd
    return run_flash_crowd(cfg)


def _combo_plan(cfg: ChaosConfig) -> FaultPlan:
    start, end = cfg.fault_start, cfg.fault_end
    third = (end - start) / 3.0
    return FaultPlan((
        LinkFault(start, end, direction=BOTH, loss_prob=0.15,
                  retransmit_delay_s=30e-6),
        HeartbeatBlackout(start, start + 2 * third),
        WorkerCrash(start + third, end, conn_ids=(0,)),
        NicReadStall(start + third, end, host="server", stall_s=5e-6),
    ))


SCENARIOS: Dict[str, ChaosScenario] = {
    s.name: s for s in (
        ChaosScenario(
            "link-loss",
            "30% packet loss on the server link; retransmit delays",
            _link_loss_plan,
            fired_checks=("packets-dropped",),
        ),
        ChaosScenario(
            "latency-spike",
            "flat +60us on every server->client transfer",
            _latency_spike_plan,
            fired_checks=("latency-injected",),
        ),
        ChaosScenario(
            "nic-read-stall",
            "server NIC adds 10us to every one-sided read it serves",
            _nic_stall_plan,
            fired_checks=("nic-stalls",),
        ),
        ChaosScenario(
            "worker-crash",
            "all server workers fail-stop for the window, then restart",
            _worker_crash_plan,
            fired_checks=("workers-crashed", "workers-restarted",
                          "duplicates-suppressed"),
        ),
        ChaosScenario(
            "heartbeat-blackout",
            "the heartbeat service sends nothing for the window",
            _blackout_plan,
            fired_checks=("beats-blacked-out",),
        ),
        ChaosScenario(
            "write-storm",
            "forced torn windows on the root; offload trips the breaker",
            _write_storm_plan,
            fired_checks=("write-storms", "breaker-trips", "failovers"),
        ),
        ChaosScenario(
            "overload-shed",
            "worker crash + queue-depth cap: stale backlog is shed",
            _worker_crash_plan,
            tweaks=(("max_queue_depth", 1),),
            fired_checks=("workers-crashed", "requests-shed"),
        ),
        ChaosScenario(
            "slow-client",
            "clients 0/1 pause 150us before each request in the window",
            _slow_client_plan,
            fired_checks=("client-stalls",),
        ),
        ChaosScenario(
            "shard-loss",
            "one shard of a 4-shard cluster fail-stops; router degrades "
            "to partial results",
            _shard_loss_plan,
            # The total retry budget (attempts x per-attempt deadline)
            # must exhaust *inside* the outage, or every request to the
            # dead shard blocks until the restart drain answers it and
            # the loss is never client-visible.
            tweaks=(
                ("retry", RetryPolicy(deadline_s=0.15e-3, max_attempts=2,
                                      backoff_base_s=20e-6)),
            ),
            runner=_shard_loss_runner,
        ),
        ChaosScenario(
            "flash-crowd",
            "open-loop arrival spike; mux watermark and the server "
            "overload guard shed, then recover",
            _flash_crowd_plan,
            # A per-attempt deadline a saturated session blows (service
            # rounds across the mux's contended sessions exceed it)
            # while an uncontended base-rate request never does — that
            # is what piles retries onto the rings and trips the
            # queue-depth guard during the spike.  The deployment shape
            # (cores, dataset, aggregates) is pinned alongside the
            # deadline: the spike/recover calibration holds only when
            # the base-rate service time sits below the deadline and
            # the spiked service time above it.
            tweaks=(
                ("retry", RetryPolicy(deadline_s=40e-6, max_attempts=2,
                                      backoff_base_s=5e-6)),
                ("max_queue_depth", 1),
                ("server_cores", 2),
                ("n_clients", 2),
                ("dataset_size", 1000),
                ("max_entries", 64),
            ),
            runner=_flash_crowd_runner,
        ),
        ChaosScenario(
            "rebalance-under-fault",
            "skewed reads drive tile splits + live migration on a lossy "
            "link; the epoch-cut protocol must stay exactly-once",
            _rebalance_fault_plan,
            runner=_rebalance_under_fault_runner,
        ),
        ChaosScenario(
            "migration-racing-writes",
            "hybrid writes race live migration windows; conservation "
            "(no lost or duplicated item) must hold after settling",
            _racing_writes_plan,
            runner=_racing_writes_runner,
        ),
        ChaosScenario(
            "chaos-combo",
            "loss + heartbeat blackout + one crashed worker + NIC stalls",
            _combo_plan,
            fired_checks=("packets-dropped", "beats-blacked-out",
                          "workers-crashed"),
        ),
    )
}


# -- the harness -------------------------------------------------------------

def _deployment(cfg: ChaosConfig, plan: FaultPlan):
    """One scenario's single-server deployment (built fresh per run).

    The ``catfish`` scheme in event mode with heartbeats, retries, an
    offload circuit breaker per client and the stale-heartbeat guard.
    Two settings are chaos-specific and applied to the built sessions:
    the tight offload budgets (a write storm must produce OffloadErrors
    in microseconds) and Algorithm 1 drawing its back-off windows from
    the per-client ``adaptive`` stream.
    """
    # Imported here: the cluster layer imports repro.faults.
    from ..cluster.deployment import Deployment

    deployment = Deployment(cfg.experiment_config(
        scheme="catfish", fault_plan=plan, node_cache=cfg.node_cache,
    ))
    for i in range(cfg.n_clients):
        salt = f"client-{i}"
        session = deployment.add_client(i, salt)
        session.engine.max_read_retries = cfg.engine_read_retries
        session.engine.max_search_restarts = cfg.engine_search_restarts
        session.policy.rng = deployment.rngs.fork(salt).stream("adaptive")
    deployment.start()
    return deployment


def _workload(cfg: ChaosConfig, deployment, client_id: int) -> List[Request]:
    """Client ``client_id``'s read-only query stream."""
    rng = deployment.rngs.fork(f"client-{client_id}").stream("workload")
    edge = cfg.query_scale
    requests = []
    for _ in range(cfg.requests_per_client):
        x = rng.uniform(0.0, 1.0 - edge)
        y = rng.uniform(0.0, 1.0 - edge)
        requests.append(Request(OP_SEARCH, Rect(x, y, x + edge, y + edge)))
    return requests


#: ``fired_checks`` vocabulary: counter-name -> reader over the deployment.
_FIRED_COUNTERS: Dict[str, Callable[[Any], int]] = {
    "packets-dropped": lambda c: int(c.injector.packets_dropped),
    "latency-injected": lambda c: int(c.injector.latency_injections),
    "nic-stalls": lambda c: int(c.injector.nic_stalls_injected),
    "beats-blacked-out": lambda c: int(c.injector.beats_blacked_out),
    "client-stalls": lambda c: int(c.injector.client_stalls_injected),
    "write-storms": lambda c: int(c.injector.write_storm_windows),
    "workers-crashed": lambda c: int(c.stacks[0].fm_server.workers_crashed),
    "workers-restarted": lambda c: int(
        c.stacks[0].fm_server.workers_restarted),
    "requests-shed": lambda c: int(c.stacks[0].fm_server.requests_shed),
    "breaker-trips": lambda c: sum(int(s.breaker.trips) for s in c.sessions),
    "failovers": lambda c: sum(
        int(s.policy.offload_failovers) for s in c.sessions
    ),
    "duplicates-suppressed": lambda c: sum(
        int(s.duplicates_suppressed) for s in c.client_stats
    ),
}


@dataclass
class ScenarioReport:
    """Everything ``repro chaos`` prints (and the tests assert on)."""

    name: str
    seed: int
    issued: int
    completed: int
    timeouts: int
    offload_errors: int
    mismatches: int
    retries: int
    duplicates_suppressed: int
    unexpected_messages: int
    pre_rate: float
    post_rate: float
    end_time: float
    counters: Dict[str, int] = field(default_factory=dict)
    invariants: List[Tuple[str, bool, str]] = field(default_factory=list)
    _fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.invariants)

    @property
    def failures(self) -> List[str]:
        return [f"{name}: {detail}"
                for name, passed, detail in self.invariants if not passed]

    def fingerprint(self) -> str:
        """Stable digest of the run's observable outcome (replay check)."""
        return self._fingerprint

    @staticmethod
    def header() -> str:
        return (f"{'scenario':<20} {'ok':>4} {'done':>9} {'retry':>6} "
                f"{'dup':>5} {'fail':>5}  invariants")

    def row(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        bad = len(self.failures)
        return (f"{self.name:<20} {status:>4} "
                f"{self.completed:>4}/{self.issued:<4} {self.retries:>6} "
                f"{self.duplicates_suppressed:>5} {bad:>5}  "
                f"{len(self.invariants)} checked")

    def describe(self) -> List[str]:
        """One line per invariant, pass/fail plus detail."""
        lines = []
        for name, passed, detail in self.invariants:
            mark = "ok  " if passed else "FAIL"
            lines.append(f"  [{mark}] {name}: {detail}")
        return lines


def client_totals(stats) -> Dict[str, int]:
    """The report's retry / late-answer / unattributable-message totals
    over every client's :class:`~repro.client.base.ClientStats`."""
    return {
        "retries": sum(int(s.request_retries) for s in stats),
        "duplicates_suppressed": sum(
            int(s.duplicates_suppressed) for s in stats),
        "unexpected_messages": sum(int(s.unexpected_messages) for s in stats),
    }


def completion_rates(times: List[float], start: float,
                     end: float) -> Tuple[float, float]:
    """Completion rates before ``start`` and from ``end`` on (``times``
    sorted), the two sides of the recovery invariant."""
    pre = sum(1 for t in times if t < start)
    post = sum(1 for t in times if t >= end)
    pre_rate = pre / start if pre else 0.0
    post_span = (times[-1] - end) if post else 0.0
    post_rate = post / post_span if post_span > 0.0 else 0.0
    return pre_rate, post_rate


def finished_check(cfg: ChaosConfig, finished: bool,
                   now: float) -> Tuple[str, bool, str]:
    """The drivers finished inside ``cfg.time_limit``."""
    return ("finished-in-time", finished,
            f"drivers {'finished' if finished else 'still running'} at "
            f"t={now * 1e3:.3f}ms (limit {cfg.time_limit * 1e3:.0f}ms)")


def recovery_check(cfg: ChaosConfig, pre_rate: float, post_rate: float,
                   required: bool = False) -> Tuple[str, bool, str]:
    """``post_rate >= recovery_floor * pre_rate``; without a sample on
    either side it holds vacuously unless ``required``."""
    if pre_rate > 0.0 and post_rate > 0.0:
        return ("throughput-recovered",
                post_rate >= cfg.recovery_floor * pre_rate,
                f"post {post_rate / 1e3:.0f} kops vs pre "
                f"{pre_rate / 1e3:.0f} kops "
                f"(floor {cfg.recovery_floor:.0%})")
    if required:
        return ("throughput-recovered", False,
                "missing pre- or post-fault sample")
    return ("throughput-recovered", True,
            "vacuous (no pre- or post-fault sample)")


def _invariants(cfg: ChaosConfig, scenario: ChaosScenario,
                report: ScenarioReport, finished: bool,
                cluster) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, bool, str]] = []
    checks.append(finished_check(cfg, finished, report.end_time))
    checks.append((
        "completed", report.completed == report.issued,
        f"{report.completed}/{report.issued} requests "
        f"({report.timeouts} timeouts, {report.offload_errors} "
        f"offload errors escaped)",
    ))
    checks.append((
        "oracle-match", report.mismatches == 0,
        f"{report.mismatches} responses disagreed with the tree",
    ))
    checks.append((
        "exactly-once", report.unexpected_messages == 0,
        f"{report.unexpected_messages} unattributable messages "
        f"({report.duplicates_suppressed} late answers suppressed)",
    ))
    retry_budget = report.issued * (cfg.retry.max_attempts - 1)
    checks.append((
        "bounded-retries", report.retries <= retry_budget,
        f"{report.retries} retries <= budget {retry_budget}",
    ))
    checks.append(recovery_check(cfg, report.pre_rate, report.post_rate))
    for key in scenario.fired_checks:
        value = _FIRED_COUNTERS[key](cluster)
        checks.append((
            f"fault-fired:{key}", value > 0, f"counter = {value}",
        ))
    return checks


def run_scenario(name: str, seed: int = 0,
                 config: Optional[ChaosConfig] = None,
                 **overrides) -> ScenarioReport:
    """Run one named scenario; returns its report (never raises on a
    failed invariant — failures are data).  Unknown names raise KeyError.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None
    cfg = config if config is not None else ChaosConfig()
    cfg = replace(cfg, seed=seed)
    if scenario.tweaks:
        cfg = replace(cfg, **dict(scenario.tweaks))
    if overrides:
        cfg = replace(cfg, **overrides)

    if scenario.runner is not None:
        return scenario.runner(cfg)

    cluster = _deployment(cfg, scenario.build_plan(cfg))
    sim = cluster.sim
    workloads = [_workload(cfg, cluster, i) for i in range(cfg.n_clients)]
    # (client_id, index, completion time, sorted matching data ids)
    records: List[Tuple[int, int, float, Tuple[int, ...]]] = []
    errors: List[Tuple[int, int, str]] = []

    def driver(client_id: int):
        session = cluster.sessions[client_id]
        for index, request in enumerate(workloads[client_id]):
            stall = cluster.injector.client_stall(client_id)
            if stall > 0.0:
                yield sim.timeout(stall)
            try:
                matches = yield from session.execute(request)
            except RequestTimeoutError:
                errors.append((client_id, index, "timeout"))
                continue
            except OffloadError:
                errors.append((client_id, index, "offload-error"))
                continue
            ids = tuple(sorted(data_id for _rect, data_id in matches))
            records.append((client_id, index, sim.now, ids))

    drivers = [sim.process(driver(i), name=f"chaos-driver-{i}")
               for i in range(cfg.n_clients)]
    finished = True
    try:
        sim.run_until_triggered(all_of(sim, drivers),
                                limit=cfg.time_limit)
    except SimulationError:
        finished = False
    sim.run(until=sim.now + cfg.grace_s)

    # The workload is read-only (and write storms only toggle versions),
    # so the tree is still the ground truth for every query.
    mismatches = 0
    for client_id, index, _t, ids in records:
        rect = workloads[client_id][index].rect
        expected = tuple(sorted(
            cluster.server.tree.search(rect).data_ids
        ))
        if ids != expected:
            mismatches += 1

    pre_rate, post_rate = completion_rates(
        sorted(t for _c, _i, t, _ids in records),
        cfg.fault_start, cfg.fault_end)
    timeouts = sum(1 for _c, _i, kind in errors if kind == "timeout")
    report = ScenarioReport(
        name=name,
        seed=cfg.seed,
        issued=cfg.total_requests,
        completed=len(records),
        timeouts=timeouts,
        offload_errors=len(errors) - timeouts,
        mismatches=mismatches,
        **client_totals(cluster.client_stats),
        pre_rate=pre_rate,
        post_rate=post_rate,
        end_time=sim.now,
        counters={key: reader(cluster)
                  for key, reader in _FIRED_COUNTERS.items()},
    )
    report.invariants = _invariants(cfg, scenario, report, finished,
                                    cluster)

    digest = hashlib.sha256()
    digest.update(f"{name}:{cfg.seed}\n".encode())
    for client_id, index, t, ids in sorted(records):
        digest.update(
            f"{client_id},{index},{t:.15e},{len(ids)},"
            f"{sum(ids)}\n".encode()
        )
    for client_id, index, kind in sorted(errors):
        digest.update(f"err,{client_id},{index},{kind}\n".encode())
    for key, value in report.counters.items():
        digest.update(f"{key}={value}\n".encode())
    report._fingerprint = digest.hexdigest()[:16]
    return report
