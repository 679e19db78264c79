"""Metrics-document pins: every name and value each deployment shape exports.

``metrics_pins.json`` holds, per shape, the ``catfish-metrics/v1``
document's metrics as name -> snapshot (``type`` left out), captured
before counters became plain ints registered through one path.  Every
pinned name must keep its value; the only names a document may add are
the ones listed in :data:`NEW_NAMES`.  ``rtree.scan_kernel_numpy`` names
the installed scan kernel and is not pinned.  Do not regenerate a value
to make a failing test pass: a mismatch means a run now reports
something different.

The other tests check the registration rules the pins cannot see: the
``counter``/``gauge`` type rule, and that the breaker, sharded and KV
sums equal the sums over their owners.
"""

import functools
import json
import re
from pathlib import Path

import pytest

from repro.btree.offload import BTreeOffloadEngine
from repro.client.base import ClientStats
from repro.client.node_cache import NodeCache, NodeCacheConfig
from repro.client.offload_client import OffloadEngine
from repro.client.resilience import BreakerParams, CircuitBreaker, RetryPolicy
from repro.cluster import KvExperimentConfig, kv_builder, run_kv_experiment
from repro.cluster.builder import ExperimentRunner, run_experiment
from repro.cluster.config import ExperimentConfig, RebalanceConfig
from repro.cuckoo.service import CuckooOffloadEngine
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault, WriteStorm
from repro.runtime.policy import Algorithm1Policy, BanditPolicy
from repro.server.base import RTreeServer
from repro.server.fast_messaging import FastMessagingServer
from repro.server.heartbeat import HeartbeatService
from repro.shard.rebalance import RebalanceStats
from repro.shard.router import RouterStats
from repro.traffic import TrafficConfig
from repro.traffic.aggregate import AggregateClient
from repro.traffic.mux import ConnectionMux

PINS_PATH = Path(__file__).with_name("metrics_pins.json")

#: One server core and a short heartbeat, so adaptive clients offload.
BASE = dict(fabric="ib-100g", n_clients=4, requests_per_client=30,
            dataset_size=1500, server_cores=1, heartbeat_interval=0.1e-3,
            seed=0)
TRAFFIC = TrafficConfig(kind="poisson", rate=200_000.0, duration_s=0.5e-3,
                        n_aggregates=2, users_per_aggregate=200, sessions=4)
RETRY = RetryPolicy(deadline_s=0.3e-3, max_attempts=6, backoff_base_s=20e-6)
BREAKER = BreakerParams(failure_threshold=2, cooldown_s=0.2e-3)
#: Lossy link plus write storms whose hold outlasts a full offload retry
#: budget, so offloads fail and the breaker trips.
FAULTS = FaultPlan((
    LinkFault(0.0, 0.3e-3, loss_prob=0.3),
    WriteStorm(0.0, 1.0, hold_s=600e-6, gap_s=8e-6),
))
KV = dict(n_clients=6, requests_per_client=30, n_keys=2000,
          server_cores=1, heartbeat_interval=0.1e-3, seed=2)

#: Shape name -> ExperimentConfig / KvExperimentConfig of the run.
SHAPES = {
    "catfish-search": ExperimentConfig(scheme="catfish",
                                       **{**BASE, "n_clients": 8}),
    "offload-multi-hybrid-cache-batch": ExperimentConfig(
        scheme="rdma-offloading-multi", workload_kind="hybrid",
        node_cache=NodeCacheConfig(), batch_queries=4, **BASE),
    "catfish-bandit": ExperimentConfig(scheme="catfish-bandit", **BASE),
    "sharded-k2-mixed": ExperimentConfig(
        scheme="catfish-sharded", n_shards=2, workload_kind="mixed", **BASE),
    "sharded-skewed-rebalance": ExperimentConfig(
        scheme="catfish-sharded", workload_kind="search-skewed",
        rebalance=RebalanceConfig(), **BASE),
    "open-k1": ExperimentConfig(scheme="catfish", traffic=TRAFFIC, **BASE),
    "open-k4": ExperimentConfig(scheme="catfish-sharded", n_shards=4,
                                traffic=TRAFFIC, **BASE),
    "catfish-faults-retry-breaker": ExperimentConfig(
        scheme="catfish", fault_plan=FAULTS, retry=RETRY, breaker=BREAKER,
        **{**BASE, "n_clients": 8}),
    "kv-btree-catfish": KvExperimentConfig(index="btree", scheme="catfish",
                                           **KV),
    "kv-cuckoo-catfish": KvExperimentConfig(index="cuckoo",
                                            scheme="catfish", **KV),
}

SERVER_SUMS = (
    "server.requests_handled", "server.requests_shed",
    "server.workers_crashed", "server.workers_restarted",
    "heartbeat.beats_sent", "heartbeat.beats_dropped",
    "heartbeat.beats_suppressed",
)
BREAKER_SUMS = ("breaker.trips", "breaker.probes", "breaker.recoveries",
                "breaker.short_circuits")
ADAPTIVE_SUMS = tuple(f"adaptive.{name}"
                      for name in Algorithm1Policy.COUNTERS)

#: Names a document gained after the pins were captured: cluster-wide
#: server/heartbeat sums on routed runs, the breaker counters, and the
#: Algorithm 1 counters of the KV runs.
NEW_NAMES = {
    "sharded-k2-mixed": SERVER_SUMS,
    "sharded-skewed-rebalance": SERVER_SUMS,
    "open-k4": SERVER_SUMS,
    "catfish-faults-retry-breaker": BREAKER_SUMS,
    "kv-btree-catfish": ADAPTIVE_SUMS,
    "kv-cuckoo-catfish": ADAPTIVE_SUMS,
}

#: Metric prefix -> the classes whose ``COUNTERS`` it registers.
COUNTER_OWNERS = {
    "client": (ClientStats,),
    "offload": (OffloadEngine, BTreeOffloadEngine, CuckooOffloadEngine),
    "cache": (NodeCache,),
    "adaptive": (Algorithm1Policy,),
    "bandit": (BanditPolicy,),
    "breaker": (CircuitBreaker,),
    "router": (RouterStats,),
    "rebalance": (RebalanceStats,),
    "server": (FastMessagingServer, RTreeServer),
    "heartbeat": (HeartbeatService,),
    "faults": (FaultInjector,),
    "traffic": (ConnectionMux, AggregateClient),
}

UNPINNED = ("rtree.scan_kernel_numpy",)


def _run(config):
    if isinstance(config, KvExperimentConfig):
        return run_kv_experiment(config)
    return run_experiment(config)


@functools.lru_cache(maxsize=None)
def document(shape: str) -> dict:
    """The shape's exported metrics, name -> snapshot (with ``type``)."""
    return _run(SHAPES[shape]).metrics["metrics"]


def pinned_values(metrics: dict) -> dict:
    """Name -> snapshot without its ``type``, as the pins store it."""
    return {
        name: {k: v for k, v in snap.items() if k != "type"}
        for name, snap in metrics.items() if name not in UNPINNED
    }


@functools.lru_cache(maxsize=None)
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_document_matches_pins(shape):
    expected = pins()[shape]
    got = pinned_values(document(shape))
    missing = sorted(set(expected) - set(got))
    assert not missing, f"names no longer exported: {missing}"
    changed = sorted(n for n in expected if got[n] != expected[n])
    assert not changed, (
        f"values changed: {[(n, expected[n], got[n]) for n in changed]}")
    assert set(got) - set(expected) == set(NEW_NAMES.get(shape, ()))


def _is_declared_counter(name: str) -> bool:
    name = re.sub(r"^shard\d+\.", "", name)
    prefix, _, field = name.partition(".")
    return any(field in getattr(owner, "COUNTERS", ())
               for owner in COUNTER_OWNERS.get(prefix, ()))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_counters_and_gauges_are_tagged_by_declaration(shape):
    for name, snap in document(shape).items():
        if snap["type"] in ("histogram", "series"):
            continue
        expected = "counter" if _is_declared_counter(name) else "gauge"
        assert snap["type"] == expected, name
        assert isinstance(snap["value"], (int, float)), name
        if expected == "counter":
            assert isinstance(snap["value"], int), name


@pytest.mark.parametrize("shape", ["sharded-k2-mixed",
                                   "sharded-skewed-rebalance", "open-k4"])
def test_sharded_runs_export_cluster_wide_server_sums(shape):
    metrics = document(shape)
    n_shards = metrics["shard.n_shards"]["value"]
    for name in SERVER_SUMS:
        per_shard = sum(metrics[f"shard{k}.{name}"]["value"]
                        for k in range(n_shards))
        assert metrics[name]["value"] == per_shard, name
    assert metrics["server.requests_handled"]["value"] > 0


def test_breaker_counters_sum_the_sessions_breakers():
    runner = ExperimentRunner(SHAPES["catfish-faults-retry-breaker"])
    metrics = runner.run().metrics["metrics"]
    breakers = [s.breaker for s in runner.sessions]
    assert all(b is not None for b in breakers)
    for name in BREAKER_SUMS:
        field = name.split(".", 1)[1]
        assert metrics[name]["value"] == sum(getattr(b, field)
                                             for b in breakers), name
    assert metrics["breaker.trips"]["value"] > 0


def test_kv_catfish_exports_algorithm1_sums(monkeypatch):
    policies = []
    build = kv_builder._path_policy

    def recording(*args, **kwargs):
        policy = build(*args, **kwargs)
        policies.append(policy)
        return policy

    monkeypatch.setattr(kv_builder, "_path_policy", recording)
    metrics = _run(SHAPES["kv-btree-catfish"]).metrics["metrics"]
    assert len(policies) == SHAPES["kv-btree-catfish"].n_clients
    assert all(isinstance(p, Algorithm1Policy) for p in policies)
    assert metrics["adaptive.decisions_offload"]["value"] == sum(
        p.decisions_offload for p in policies)
    assert metrics["adaptive.decisions_offload"]["value"] > 0
