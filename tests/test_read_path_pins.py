"""Golden fingerprints for read-path shapes the scheme goldens miss.

The scheme, chaos and KV goldens run every scheme on its defaults, so
they never reach the batched search, the node cache, offloaded COUNT and
kNN, the sharded COUNT sum, the epoch-aware re-scatter loop, batch
failover under a breaker, or retry-only fast messaging.  Each point
below pins one of those shapes with a ``result_fingerprint`` so that a
refactor of the read path (fast messaging, the policy session, the
offload engine, the router) must keep it bit-identical.  Do not
regenerate a value to make a failing test pass: a mismatch means the
simulation's behaviour changed.
"""

import pytest

from repro.client.node_cache import NodeCacheConfig
from repro.client.resilience import BreakerParams, RetryPolicy
from repro.cluster.builder import run_experiment
from repro.cluster.config import ExperimentConfig, RebalanceConfig
from repro.cluster.results import result_fingerprint
from repro.faults.plan import FaultPlan, LinkFault, WriteStorm

#: One server core and a short heartbeat, so adaptive clients offload.
BASE = dict(fabric="ib-100g", n_clients=4, requests_per_client=30,
            dataset_size=1500, server_cores=1, heartbeat_interval=0.1e-3,
            seed=0)

RETRY = RetryPolicy(deadline_s=0.3e-3, max_attempts=6, backoff_base_s=20e-6)
BREAKER = BreakerParams(failure_threshold=2, cooldown_s=0.2e-3)
#: Lossy link plus write storms whose hold outlasts a full offload
#: retry budget, so offloaded batches fail over to fast messaging.
FAULTS = FaultPlan((
    LinkFault(0.0, 0.3e-3, loss_prob=0.3),
    WriteStorm(0.0, 1.0, hold_s=600e-6, gap_s=8e-6),
))

PINS = {
    "rdma-offloading+batch": (
        dict(scheme="rdma-offloading", batch_queries=4),
        "28e4ce6936311d77"),
    "rdma-offloading+cache": (
        dict(scheme="rdma-offloading", node_cache=NodeCacheConfig()),
        "2fc0297c2c0a7e84"),
    "rdma-offloading-multi+cache": (
        dict(scheme="rdma-offloading-multi", node_cache=NodeCacheConfig()),
        "a19bd063b7504093"),
    "rdma-offloading-multi+batch+cache": (
        dict(scheme="rdma-offloading-multi", batch_queries=4,
             node_cache=NodeCacheConfig()),
        "add19fe752c5a0c3"),
    "catfish+batch+cache": (
        dict(scheme="catfish", n_clients=8, batch_queries=4,
             node_cache=NodeCacheConfig()),
        "8f231c9986eb2f4f"),
    "catfish-bandit+batch": (
        dict(scheme="catfish-bandit", batch_queries=4),
        "51308d3b36f6f4ab"),
    "rdma-offloading+mixed": (
        dict(scheme="rdma-offloading", workload_kind="mixed"),
        "601ff5c4c0bb73ea"),
    "rdma-offloading-multi+mixed": (
        dict(scheme="rdma-offloading-multi", workload_kind="mixed"),
        "22468a1c552f5cc9"),
    "catfish-sharded+mixed": (
        dict(scheme="catfish-sharded", workload_kind="mixed"),
        "fc1fd6999d9607ef"),
    "catfish-sharded+churn": (
        dict(scheme="catfish-sharded", workload_kind="churn"),
        "21e27df90e24c44b"),
    "catfish-sharded+skewed+rebalance": (
        dict(scheme="catfish-sharded", workload_kind="search-skewed",
             rebalance=RebalanceConfig()),
        "36d615cf36e50036"),
    "catfish+faults+retry+breaker+batch": (
        dict(scheme="catfish", n_clients=8, batch_queries=4,
             fault_plan=FAULTS, retry=RETRY, breaker=BREAKER),
        "4d3451306822ea90"),
    "catfish+retry": (
        dict(scheme="catfish", workload_kind="hybrid", retry=RETRY),
        "9fe56d5f66b92d0d"),
    "rdma-offloading-multi+bytes": (
        dict(scheme="rdma-offloading-multi", byte_mode=True),
        "28276876492211df"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_read_path_fingerprint_matches_golden(name):
    overrides, golden = PINS[name]
    result = run_experiment(ExperimentConfig(**{**BASE, **overrides}))
    assert result_fingerprint(result) == golden
