"""Build and run a sharded Catfish cluster: K servers, routed clients.

The closed-loop driver of :class:`~repro.cluster.builder.ExperimentRunner`
on a *routed* :class:`~repro.cluster.deployment.Deployment`: K fully
independent Catfish servers — each with its own host, star network,
R*-tree over its partition slice, fast-messaging worker pool and
heartbeat service — on one shared simulator.  Every client opens one
session *per shard* (so each shard's heartbeat independently drives that
client's Algorithm 1 back-off state for that shard) and issues its
requests through a :class:`~repro.shard.router.ScatterGatherRouter`.

Determinism contract: the dataset and each client's workload stream are
derived exactly as in the single-server runner (same seed → same items,
same requests), while all shard-side randomness comes from
``RngRegistry.shard(k)`` — a function of ``(seed, shard_id)`` only — so
changing the shard count never perturbs another shard's streams and a
sharded run is comparable against the single-server oracle.
"""

from __future__ import annotations

from typing import List

from ..cluster.builder import ExperimentRunner
from ..cluster.config import ExperimentConfig
from ..cluster.results import RunResult


class ShardedExperimentRunner(ExperimentRunner):
    """Builds a K-shard cluster for a config and runs it to completion.

    ``record_results`` makes every router log its results for the
    oracle check (:mod:`repro.shard.verify`).
    """

    routed = True

    def initial_occupancy(self) -> List[int]:
        """Items per shard at partition time (before any routed write)."""
        return [len(slice_items)
                for slice_items in self.partition.assignments]

    def shard_occupancy(self) -> List[int]:
        """Items per shard right now (exact leaf walk per stack)."""
        return [stack.items_held() for stack in self.stacks]

    def _extra(self) -> dict:
        """RunResult.extra payload (excluded from result fingerprints, so
        the occupancy report is safe to grow)."""
        def total(field: str) -> float:
            return float(sum(getattr(r, field) for r in self.router_stats))

        extra = {
            "n_shards": float(self.n_shards),
            "partial_results": total("partial_results"),
            "shards_pruned": total("shards_pruned"),
        }
        for shard_id, held in enumerate(self.shard_occupancy()):
            extra[f"shard{shard_id}_items"] = float(held)
        if self.rebalance_stats is not None:
            for name, value in self.rebalance_stats.snapshot().items():
                extra[f"rebalance_{name}"] = float(value)
            extra["map_epoch"] = float(self.live_map.epoch)
            extra["epoch_rescatters"] = total("epoch_rescatters")
            extra["rescattered_subqueries"] = total("rescattered_subqueries")
        return extra


def run_sharded_experiment(config: ExperimentConfig) -> RunResult:
    """Convenience wrapper: build, run, collect."""
    return ShardedExperimentRunner(config).run()
