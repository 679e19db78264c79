"""Integration tests for the KV experiment harness (§VI extensions)."""

import pytest

from repro.cluster import KvExperimentConfig, run_kv_experiment
from repro.cluster.results import result_fingerprint

SMALL = dict(n_clients=4, requests_per_client=40, n_keys=3000,
             server_cores=4, heartbeat_interval=0.2e-3, seed=2)

#: One saturated server core, so the adaptive and bandit clients use
#: both paths; B+tree points mix in range scans.
PINNED = dict(n_clients=6, requests_per_client=40, n_keys=3000,
              server_cores=1, heartbeat_interval=0.1e-3, seed=2)

#: ``result_fingerprint`` of every KV point, captured when the KV clients
#: were still dedicated session classes (before they became
#: ``PolicySession`` subclasses driven by the shared closed-loop driver).
#: Do not regenerate to make a failing test pass: a mismatch means the
#: simulation's behaviour changed.
GOLDEN_KV = {
    ("btree", "fast-messaging"): "83a7f877bfb7147d",
    ("btree", "rdma-offloading"): "13fd329d11a5a47f",
    ("btree", "catfish"): "7a886ce1bcb65d93",
    ("btree", "catfish-bandit"): "3403b0fe73880ca5",
    ("cuckoo", "fast-messaging"): "2e178eb4b2fe1f70",
    ("cuckoo", "rdma-offloading"): "f4a37d881c04a3af",
    ("cuckoo", "catfish"): "88d6efb618dd53d9",
    ("cuckoo", "catfish-bandit"): "77b96d4d7edb2228",
}


@pytest.mark.parametrize("index,scheme", sorted(GOLDEN_KV))
def test_kv_fingerprint_matches_golden(index, scheme):
    scans = dict(scan_fraction=0.05) if index == "btree" else {}
    result = run_kv_experiment(KvExperimentConfig(
        index=index, scheme=scheme, **PINNED, **scans))
    assert result_fingerprint(result) == GOLDEN_KV[(index, scheme)]


class TestConfig:
    def test_defaults(self):
        config = KvExperimentConfig()
        assert config.index == "btree"
        assert config.adaptive is not None
        assert config.adaptive.Inv == config.heartbeat_interval

    def test_unknown_index(self):
        with pytest.raises(ValueError):
            KvExperimentConfig(index="skiplist")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            KvExperimentConfig(scheme="quic")

    def test_cuckoo_rejects_scans(self):
        with pytest.raises(ValueError):
            KvExperimentConfig(index="cuckoo", scan_fraction=0.1)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            KvExperimentConfig(get_fraction=0.9, scan_fraction=0.2)

    def test_tcp_fabric_rejected(self):
        with pytest.raises(ValueError):
            run_kv_experiment(KvExperimentConfig(fabric="eth-1g", **SMALL))


class TestRuns:
    @pytest.mark.parametrize("index", ["btree", "cuckoo"])
    @pytest.mark.parametrize("scheme", [
        "fast-messaging", "rdma-offloading", "catfish", "catfish-bandit",
    ])
    def test_every_combination_completes(self, index, scheme):
        result = run_kv_experiment(KvExperimentConfig(
            index=index, scheme=scheme, **SMALL))
        assert result.total_requests == 4 * 40
        assert result.throughput_kops > 0
        assert result.scheme == f"{index}:{scheme}"

    def test_btree_scans_in_mix(self):
        result = run_kv_experiment(KvExperimentConfig(
            index="btree", scheme="catfish",
            get_fraction=0.6, scan_fraction=0.3, **SMALL))
        assert result.total_requests == 160

    def test_offloading_zero_cpu_with_pure_gets(self):
        result = run_kv_experiment(KvExperimentConfig(
            index="cuckoo", scheme="rdma-offloading",
            get_fraction=1.0, **SMALL))
        assert result.server_cpu_utilization == 0.0
        assert result.offload_fraction == 1.0

    def test_catfish_offloads_under_kv_saturation(self):
        config = KvExperimentConfig(
            index="btree", scheme="catfish",
            n_clients=16, requests_per_client=150, n_keys=4000,
            server_cores=1, heartbeat_interval=0.2e-3, seed=3,
        )
        result = run_kv_experiment(config)
        assert result.offload_fraction > 0.05
        assert result.heartbeats_sent > 0

    def test_reproducible(self):
        a = run_kv_experiment(KvExperimentConfig(scheme="catfish", **SMALL))
        b = run_kv_experiment(KvExperimentConfig(scheme="catfish", **SMALL))
        assert a.mean_latency_us == b.mean_latency_us

    def test_zipf_skew_changes_results(self):
        flat = run_kv_experiment(KvExperimentConfig(zipf_s=0.0, **SMALL))
        skew = run_kv_experiment(KvExperimentConfig(zipf_s=1.2, **SMALL))
        # both complete; different key streams -> different latencies
        assert flat.total_requests == skew.total_requests
        assert flat.mean_latency_us != skew.mean_latency_us
