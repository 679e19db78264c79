"""Sharded chaos scenarios: shard loss, rebalance under fault, racing writes.

Runs a mixed read-only workload through a 4-shard cluster while one
shard fail-stops for the fault window, then checks the sharded system's
two-sided correctness contract:

* every *complete* :class:`~repro.shard.router.PartialResult` is exactly
  the single-tree oracle's answer (sharding is invisible when healthy);
* every *degraded* result is exactly the union of the surviving shards'
  oracle answers — a strict subset of the truth with per-shard blame,
  never a wrong or duplicated answer.

The harness mirrors :func:`repro.faults.scenarios.run_scenario`'s report
shape, so ``repro chaos`` and the smoke/test tooling treat shard-loss
like any other scenario (invariants, fired-counters, replayable
fingerprint).

Two further scenarios stress the *elastic* plane (PR 10):

* **rebalance-under-fault** — a skewed read-only workload drives tile
  splits and live migrations while the link drops 30% of packets; every
  complete result must still match the single-tree oracle exactly and
  every degraded result must stay sound (epoch-cut exactly-once under
  fault pressure);
* **migration-racing-writes** — a hybrid write workload races the
  migration copy/cut-over/drain windows; after settling, every dataset
  id and every acked insert must live in exactly one shard tree
  (conservation: migration neither loses nor duplicates racing writes).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, List, Tuple

from ..client.base import OP_INSERT, READ_OPS
from ..cluster.config import RebalanceConfig
from ..faults.plan import BOTH, FaultPlan, LinkFault, ShardLoss
from ..faults.scenarios import (
    ChaosConfig,
    ScenarioReport,
    client_totals,
    completion_rates,
    finished_check,
    recovery_check,
)
from ..rtree.bulk import bulk_load
from ..sim.kernel import SimulationError
from .deploy import ShardedExperimentRunner
from .rebalance import RebalanceStats
from .router import RouterStats
from .verify import result_consistent, result_consistent_rebalance

#: The scenario's fixed topology: 4 shards, shard 1 lost for the window.
N_SHARDS = 4
LOST_SHARDS = (1,)


def shard_loss_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        ShardLoss(cfg.fault_start, cfg.fault_end, shard_ids=LOST_SHARDS),
    ))


def _experiment_config(cfg: ChaosConfig, workload: str, fault_plan,
                       **overrides):
    return cfg.experiment_config(
        scheme="catfish-sharded", workload_kind=workload,
        scale=str(cfg.query_scale), fault_plan=fault_plan,
        n_shards=N_SHARDS, **overrides,
    )


def run_shard_loss(cfg: ChaosConfig) -> ScenarioReport:
    """Run the scenario under ``cfg``; returns its report (failures are
    data, like every other chaos scenario)."""
    runner, finished, records = _run_cluster(
        cfg, _experiment_config(cfg, "mixed", shard_loss_plan(cfg)))
    sim = runner.sim
    # Read-only workload: both the single bulk-loaded tree and the
    # per-shard trees are pure ground truth for every query.
    (complete_mismatches, degraded_mismatches, degraded_total,
     degraded_in_window, duplicates_dropped) = _audit(
        runner, result_consistent,
        window=(cfg.fault_start, cfg.fault_end + cfg.grace_s))

    issued = cfg.total_requests
    completed = len(records)
    pre_rate, post_rate = completion_rates(
        sorted(t for _c, _i, t, _op, _ok in records),
        cfg.fault_start, cfg.fault_end)

    def _router_sum(field: str) -> int:
        return sum(int(getattr(r, field)) for r in runner.router_stats)

    counters: Dict[str, int] = {
        "shards-lost": int(runner.injector.shards_lost),
        "shards-restored": int(runner.injector.shards_restored),
        "workers-crashed": int(runner.injector.workers_crashed),
        "workers-restarted": int(runner.injector.workers_restarted),
        "beats-blacked-out": int(runner.injector.beats_blacked_out),
    }
    for field in RouterStats.FIELDS:
        counters[field.replace("_", "-")] = _router_sum(field)

    report = ScenarioReport(
        name="shard-loss",
        seed=cfg.seed,
        issued=issued,
        completed=completed,
        timeouts=_router_sum("shard_timeouts"),
        offload_errors=_router_sum("shard_offload_errors"),
        mismatches=complete_mismatches + degraded_mismatches,
        **client_totals(runner.client_stats),
        pre_rate=pre_rate,
        post_rate=post_rate,
        end_time=sim.now,
        counters=counters,
    )

    checks: List[Tuple[str, bool, str]] = []
    checks.append(finished_check(cfg, finished, sim.now))
    checks.append((
        "completed", completed == issued,
        f"{completed}/{issued} requests returned a PartialResult "
        f"({degraded_total} degraded)",
    ))
    checks.append((
        "complete-results-exact", complete_mismatches == 0,
        f"{complete_mismatches} complete results disagreed with the "
        f"single-tree oracle",
    ))
    checks.append((
        "degraded-results-correct", degraded_mismatches == 0,
        f"{degraded_mismatches} of {degraded_total} degraded results "
        f"disagreed with their surviving shards' oracle",
    ))
    checks.append((
        "exactly-once",
        duplicates_dropped == 0 and report.unexpected_messages == 0,
        f"{duplicates_dropped} duplicate ids reached the merge, "
        f"{report.unexpected_messages} unattributable messages "
        f"({report.duplicates_suppressed} late answers suppressed)",
    ))
    checks.append((
        "partials-observed", degraded_in_window > 0,
        f"{degraded_in_window} degraded results during the outage "
        f"(loss must be client-visible, not silently absorbed)",
    ))
    checks.append(recovery_check(cfg, pre_rate, post_rate))
    for key in ("shards-lost", "shards-restored", "workers-crashed"):
        checks.append((
            f"fault-fired:{key}", counters[key] > 0,
            f"counter = {counters[key]}",
        ))
    report.invariants = checks
    _fingerprint(report, "shard-loss", cfg, records, counters)
    return report


# -- the elastic-plane scenarios ---------------------------------------------

#: Aggressive controller tuning shared by both rebalance scenarios: the
#: chaos runs are short (a few ms simulated), so the controller must
#: observe, split and migrate inside that horizon at every test sizing.
REBALANCE_TUNING = RebalanceConfig(
    interval=0.02e-3,
    split_ratio=1.2,
    min_split_items=16,
    max_tiles=32,
    drain_s=0.05e-3,
)


def rebalance_fault_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        LinkFault(cfg.fault_start, cfg.fault_end, direction=BOTH,
                  loss_prob=0.3, retransmit_delay_s=30e-6),
    ))


def _run_cluster(cfg: ChaosConfig, config):
    """Shared run harness: build, drive to completion, let late segments
    drain, settle migrations.

    Returns ``(runner, finished, records)`` where ``records`` is the
    fingerprintable per-request log every sharded scenario digests.
    """
    runner = ShardedExperimentRunner(config, record_results=True)
    sim = runner.sim
    finished = True
    try:
        runner.drive(limit=cfg.time_limit)
    except SimulationError:
        finished = False
    sim.run(until=sim.now + cfg.grace_s)
    runner.settle()
    records: List[Tuple[int, int, float, str, bool]] = []
    for client_id, router in enumerate(runner.routers):
        for index, request, result, t in router.log:
            records.append((client_id, index, t,
                            request.op, result.complete))
    return runner, finished, records


def _audit(runner, consistent, window=(0.0, 0.0)):
    """Check every routed result against a tree bulk-loaded from the
    dataset with ``consistent``.  Returns the complete and degraded
    mismatches, the degraded results (all, and inside ``window``) and the
    duplicate ids the merge dropped."""
    tree = bulk_load(runner.dataset, max_entries=runner.config.max_entries)
    complete_bad = degraded_bad = degraded = in_window = dropped = 0
    for router in runner.routers:
        for _index, request, result, t in router.log:
            dropped += result.duplicates_dropped
            if not result.complete:
                degraded += 1
                in_window += window[0] <= t < window[1]
            if not consistent(runner, tree, request, result):
                if result.complete:
                    complete_bad += 1
                else:
                    degraded_bad += 1
    return complete_bad, degraded_bad, degraded, in_window, dropped


def _rebalance_counters(runner) -> Dict[str, int]:
    counters: Dict[str, int] = {}
    if runner.injector is not None:
        counters["packets-dropped"] = int(runner.injector.packets_dropped)
    for field in RouterStats.FIELDS + RouterStats.REBALANCE_FIELDS:
        counters[field.replace("_", "-")] = sum(
            int(getattr(r, field)) for r in runner.router_stats
        )
    for field in RebalanceStats.FIELDS:
        counters["rebalance-" + field.replace("_", "-")] = int(
            getattr(runner.rebalance_stats, field)
        )
    counters["map-epoch"] = runner.live_map.epoch
    counters["tiles"] = len(runner.live_map.tiles)
    return counters


def _map_invariants(runner) -> Tuple[str, bool, str]:
    """The live map's tiles stay disjoint and plane-covering."""
    try:
        runner.live_map.check_invariants()
    except ValueError as exc:
        return ("map-invariants", False, str(exc))
    return ("map-invariants", True, "tiles disjoint + covering")


def _fingerprint(report: ScenarioReport, name: str, cfg: ChaosConfig,
                 records, counters: Dict[str, int]) -> None:
    digest = hashlib.sha256()
    digest.update(f"{name}:{cfg.seed}:{N_SHARDS}\n".encode())
    for client_id, index, t, op, complete in sorted(records):
        digest.update(
            f"{client_id},{index},{t:.15e},{op},{int(complete)}\n".encode()
        )
    for key in sorted(counters):
        digest.update(f"{key}={counters[key]}\n".encode())
    report._fingerprint = digest.hexdigest()[:16]


def run_rebalance_under_fault(cfg: ChaosConfig) -> ScenarioReport:
    """Skewed reads drive splits + migrations while the link drops 30%."""
    runner, finished, records = _run_cluster(cfg, _experiment_config(
        cfg, "search-skewed", rebalance_fault_plan(cfg),
        rebalance=REBALANCE_TUNING))
    sim = runner.sim
    complete_mismatches, degraded_mismatches, degraded_total, _, _ = _audit(
        runner, result_consistent_rebalance)

    counters = _rebalance_counters(runner)
    stats = runner.rebalance_stats
    issued = cfg.total_requests
    completed = len(records)
    report = ScenarioReport(
        name="rebalance-under-fault",
        seed=cfg.seed,
        issued=issued,
        completed=completed,
        timeouts=counters["shard-timeouts"],
        offload_errors=counters["shard-offload-errors"],
        mismatches=complete_mismatches + degraded_mismatches,
        **client_totals(runner.client_stats),
        pre_rate=0.0,
        post_rate=0.0,
        end_time=sim.now,
        counters=counters,
    )

    occupancy = runner.shard_occupancy()
    checks: List[Tuple[str, bool, str]] = [
        finished_check(cfg, finished, sim.now),
        ("completed", completed == issued,
         f"{completed}/{issued} requests returned a result "
         f"({degraded_total} degraded)"),
        ("complete-results-exact", complete_mismatches == 0,
         f"{complete_mismatches} complete results disagreed with the "
         f"single-tree oracle (migration must be invisible)"),
        ("degraded-results-sound", degraded_mismatches == 0,
         f"{degraded_mismatches} of {degraded_total} degraded results "
         f"were unsound (invented ids / bad ordering)"),
        ("splits-fired", int(stats.splits) > 0,
         f"{int(stats.splits)} tile splits"),
        ("migrations-completed",
         int(stats.migrations_completed) > 0
         and not runner.rebalancer.active_migrations,
         f"{int(stats.migrations_completed)} migrations completed, "
         f"{int(stats.items_migrated)} items moved"),
        ("items-conserved", sum(occupancy) == cfg.dataset_size,
         f"final occupancy {occupancy} sums to {sum(occupancy)} "
         f"(dataset {cfg.dataset_size})"),
        _map_invariants(runner),
        ("fault-fired:packets-dropped",
         counters.get("packets-dropped", 0) > 0,
         f"counter = {counters.get('packets-dropped', 0)}"),
    ]
    report.invariants = checks
    _fingerprint(report, "rebalance-under-fault", cfg, records, counters)
    return report


def run_migration_racing_writes(cfg: ChaosConfig) -> ScenarioReport:
    """Hybrid writes race the migration copy/cut-over/drain windows."""
    runner, finished, records = _run_cluster(cfg, _experiment_config(
        cfg, "hybrid", None, rebalance=REBALANCE_TUNING))
    sim = runner.sim
    stats = runner.rebalance_stats
    windows = runner.rebalancer.migration_windows

    acked_inserts: List[int] = []
    unacked_inserts: List[int] = []
    inserts_in_window = 0
    duplicate_read_ids = 0
    for router in runner.routers:
        for _index, request, result, t in router.log:
            if request.op == OP_INSERT:
                # A complete insert was acked by its owner shard (the
                # FM reply payload itself is an empty segment list).
                if result.complete:
                    acked_inserts.append(request.data_id)
                    if any(start <= t <= (end if end is not None else t)
                           for start, end in windows):
                        inserts_in_window += 1
                else:
                    # A timed-out insert may still have been applied
                    # server-side before the ack was lost: ambiguous.
                    unacked_inserts.append(request.data_id)
            elif request.op in READ_OPS and isinstance(result.results,
                                                       list):
                ids = [d for _r, d in result.results]
                duplicate_read_ids += len(ids) - len(set(ids))

    # Conservation: after settling, the union of the shard trees must
    # hold the dataset plus every acked insert exactly once each.
    # Unacked (timed-out) insert attempts are ambiguous — the server
    # may have applied them before the reply was lost — so their ids
    # are allowed to appear at most once, but nothing else may.
    held: List[int] = []
    for stack in runner.shards:
        held.extend(
            entry.data_id
            for node in stack.server.tree.nodes.values()
            if node.level == 0
            for entry in node.entries
        )
    held_counts = Counter(held)
    expected_ids = sorted(
        [data_id for _rect, data_id in runner.dataset] + acked_inserts
    )
    expected_set = set(expected_ids)
    ambiguous = set(unacked_inserts) - expected_set
    missing = [d for d in expected_ids if held_counts.get(d, 0) != 1]
    extras = [
        d for d, n in held_counts.items()
        if d not in expected_set and (d not in ambiguous or n != 1)
    ]
    conserved = not missing and not extras

    counters = _rebalance_counters(runner)
    counters["acked-inserts"] = len(acked_inserts)
    counters["inserts-in-migration-window"] = inserts_in_window
    issued = cfg.total_requests
    completed = len(records)
    report = ScenarioReport(
        name="migration-racing-writes",
        seed=cfg.seed,
        issued=issued,
        completed=completed,
        timeouts=counters["shard-timeouts"],
        offload_errors=counters["shard-offload-errors"],
        mismatches=0 if conserved else 1,
        **client_totals(runner.client_stats),
        pre_rate=0.0,
        post_rate=0.0,
        end_time=sim.now,
        counters=counters,
    )

    checks: List[Tuple[str, bool, str]] = [
        finished_check(cfg, finished, sim.now),
        ("completed", completed == issued,
         f"{completed}/{issued} requests returned a result"),
        ("migrations-completed",
         int(stats.migrations_completed) > 0
         and not runner.rebalancer.active_migrations,
         f"{int(stats.migrations_completed)} migrations completed, "
         f"{int(stats.items_migrated)} items moved"),
        ("writes-raced-migration", inserts_in_window > 0,
         f"{inserts_in_window} of {len(acked_inserts)} acked inserts "
         f"landed inside a migration window"),
        ("conservation-exact", conserved,
         f"{len(held)} items across final trees vs "
         f"{len(expected_ids)} expected (dataset + acked inserts, "
         f"{len(ambiguous)} unacked attempts ambiguous), "
         f"{'exact' if conserved else 'MISMATCH'}"),
        ("reads-exactly-once", duplicate_read_ids == 0,
         f"{duplicate_read_ids} duplicate ids delivered to clients"),
        _map_invariants(runner),
    ]
    report.invariants = checks
    _fingerprint(report, "migration-racing-writes", cfg, records, counters)
    return report
