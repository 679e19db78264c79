"""The elastic shard plane: controller units, end-to-end rebalancing
runs, and the two fingerprint-pinned chaos scenarios.

The end-to-end runs use a quadrant-concentrated fixed query set so one
shard starts hot and the controller has something real to do; they are
sized to stay in tier-1 (sub-second each).
"""

import random

import pytest

from repro.cluster.config import ExperimentConfig, RebalanceConfig
from repro.faults import run_scenario
from repro.rtree.geometry import Rect
from repro.shard.deploy import ShardedExperimentRunner
from repro.shard.rebalance import RebalanceController, RebalanceStats
from repro.shard.verify import verify_routed_results

#: Matches tests/test_chaos.py: same structure, ~4x faster.
FAST = dict(n_clients=2, requests_per_client=120, dataset_size=1000)

#: Aggressive-but-damped tuning the end-to-end tests run under.
TUNING = RebalanceConfig(interval=0.3e-3, split_ratio=1.5,
                         min_split_items=16, drain_s=0.1e-3)


def quadrant_queries(n=200, scale=0.03, seed=7):
    """Fixed query rects concentrated in the lower-left quadrant."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
        out.append(Rect(max(cx - scale / 2, 0.0), max(cy - scale / 2, 0.0),
                        min(cx + scale / 2, 1.0), min(cy + scale / 2, 1.0)))
    return out


def skewed_config(rebalance=TUNING, **overrides):
    defaults = dict(
        scheme="fast-messaging-event",
        workload_kind="queries",
        queries=quadrant_queries(),
        n_clients=4,
        requests_per_client=150,
        dataset_size=800,
        max_entries=16,
        server_cores=1,
        n_shards=4,
        seed=0,
        rebalance=rebalance,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestMedianCut:
    def test_cuts_wider_axis_at_median(self):
        centers = [(0.0, 0.5), (0.2, 0.5), (0.8, 0.5), (1.0, 0.5)]
        index, axis, cut = RebalanceController._median_cut(3, centers)
        assert index == 3
        assert axis == "x"
        assert cut == pytest.approx(0.5)

    def test_falls_back_to_other_axis(self):
        # Every center shares x; only y admits a cut.
        centers = [(0.5, 0.1), (0.5, 0.2), (0.5, 0.8), (0.5, 0.9)]
        _index, axis, cut = RebalanceController._median_cut(0, centers)
        assert axis == "y"
        assert 0.2 < cut < 0.8

    def test_degenerate_median_uses_extent_midpoint(self):
        # Median pair ties at 0.9 but the extent still has a strict gap.
        centers = [(0.1, 0.0), (0.9, 0.0), (0.9, 0.0), (0.9, 0.0)]
        _index, axis, cut = RebalanceController._median_cut(0, centers)
        assert axis == "x"
        assert 0.1 < cut < 0.9

    def test_identical_centers_yield_none(self):
        centers = [(0.5, 0.5)] * 4
        assert RebalanceController._median_cut(0, centers) is None


class TestHalfMbrs:
    def test_exact_covers(self):
        items = [
            ((0.1, 0.1), Rect(0.05, 0.05, 0.15, 0.15)),
            ((0.2, 0.2), Rect(0.18, 0.18, 0.22, 0.22)),
            ((0.8, 0.8), Rect(0.75, 0.75, 0.85, 0.85)),
        ]
        low, high = RebalanceController._half_mbrs(items, "x", 0.5)
        assert (low.minx, low.maxx) == (0.05, 0.22)
        assert (high.minx, high.maxx) == (0.75, 0.85)

    def test_empty_half_is_none(self):
        items = [((0.1, 0.1), Rect(0.1, 0.1, 0.1, 0.1))]
        low, high = RebalanceController._half_mbrs(items, "y", 0.9)
        assert low is not None
        assert high is None


class TestStats:
    def test_snapshot_names_every_field(self):
        stats = RebalanceStats()
        snap = stats.snapshot()
        assert set(snap) == set(RebalanceStats.COUNTERS)
        assert all(v == 0 for v in snap.values())
        stats.splits += 3
        assert stats.snapshot()["splits"] == 3


class TestEndToEnd:
    def test_skewed_run_splits_and_stays_exact(self):
        runner = ShardedExperimentRunner(skewed_config(),
                                         record_results=True)
        result = runner.run()
        extra = result.extra
        assert extra["rebalance_splits"] > 0
        assert extra["rebalance_migrations_completed"] > 0
        assert not runner.rebalancer.active_migrations
        assert extra["map_epoch"] > 0
        # The live map survived every revision structurally intact.
        runner.live_map.check_invariants()
        # Every recorded read matches the single-tree oracle, despite
        # queries racing splits, cut-overs, and drains.
        summary = verify_routed_results(runner)
        assert summary.ok, summary
        assert summary.checked == 600

    def test_straddling_queries_rescatter(self):
        """Queries in flight across an epoch cut re-scatter instead of
        returning partial results (deterministic at a fixed seed)."""
        runner = ShardedExperimentRunner(skewed_config(),
                                         record_results=True)
        result = runner.run()
        assert result.extra["epoch_rescatters"] > 0
        assert result.extra["rescattered_subqueries"] > 0
        summary = verify_routed_results(runner)
        assert summary.ok, summary

    def test_occupancy_tracks_migrations(self):
        """After migrations settle, the live map's counts agree with an
        exact per-shard leaf walk, and the plane actually moved items."""
        runner = ShardedExperimentRunner(skewed_config())
        result = runner.run()
        walk = runner.shard_occupancy()
        assert sum(walk) == runner.config.dataset_size
        assert walk != runner.initial_occupancy()
        assert runner.live_map.counts() == walk
        reported = [int(result.extra[f"shard{k}_items"]) for k in range(4)]
        assert reported == walk

    def test_rebalance_off_keeps_static_plane(self):
        runner = ShardedExperimentRunner(skewed_config(rebalance=None))
        result = runner.run()
        assert runner.rebalancer is None
        assert runner.live_map is None
        assert "rebalance_splits" not in result.extra
        assert runner.shard_occupancy() == runner.initial_occupancy()

    def test_same_seed_replays_identically(self):
        first = ShardedExperimentRunner(skewed_config())
        a = first.run()
        second = ShardedExperimentRunner(skewed_config())
        b = second.run()
        assert a.extra == b.extra
        assert a.throughput_kops == b.throughput_kops
        assert first.live_map.epoch == second.live_map.epoch


@pytest.mark.parametrize("name,fingerprint", [
    ("rebalance-under-fault", "4da09f454ef412f4"),
    ("migration-racing-writes", "b4222c4c38b1bacc"),
])
class TestChaosScenarios:
    def test_green_and_pinned_at_fast_size(self, name, fingerprint):
        report = run_scenario(name, **FAST)
        assert report.ok, report.failures
        assert report.fingerprint() == fingerprint
