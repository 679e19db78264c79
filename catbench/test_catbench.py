"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest catbench -q
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.client.base import OP_INSERT, OP_SEARCH, Request  # noqa: E402
from repro.cluster.builder import ExperimentRunner  # noqa: E402
from repro.cluster.results import result_fingerprint  # noqa: E402
from repro.rtree.bulk import bulk_load  # noqa: E402
from repro.rtree.geometry import Rect  # noqa: E402
from repro.shard.deploy import ShardedExperimentRunner  # noqa: E402
from repro.traffic import TrafficConfig  # noqa: E402
from repro.traffic.harness import TrafficRunner  # noqa: E402
from repro.workloads.datasets import uniform_dataset  # noqa: E402

from catbench import ledger, workloads  # noqa: E402
from catbench.run import END_TO_END_UNITS  # noqa: E402


def small_config(**overrides):
    settings = dict(n_clients=4, requests_per_client=40, dataset_size=2_000,
                    server_cores=2, scale="0.01")
    settings.update(overrides)
    return workloads.base_config(**settings)


def test_every_repro_package_maps_to_a_layer():
    packages = [name for name in os.listdir(ledger.REPRO_DIR)
                if os.path.isfile(os.path.join(ledger.REPRO_DIR, name,
                                               "__init__.py"))]
    assert packages
    for package in packages:
        assert ledger.LAYER_OF.get(package) in ledger.LAYERS, package
    assert ledger.LAYER_OF[""] in ledger.LAYERS
    assert set(ledger.LAYER_OF.values()) == set(ledger.LAYERS)


def test_layer_of_file():
    kernel = os.path.join(ledger.REPRO_DIR, "sim", "kernel.py")
    cli = os.path.join(ledger.REPRO_DIR, "cli.py")
    assert ledger.layer_of_file(kernel) == "sim"
    assert ledger.layer_of_file(cli) == "runtime"
    assert ledger.layer_of_file(ledger.__file__) == ledger.BENCH
    assert ledger.layer_of_file("~") == ledger.OTHER
    assert ledger.layer_of_file(os.__file__) == ledger.OTHER


def test_layer_call_counts_sum_to_profiled_total():
    runner = ExperimentRunner(small_config())
    profile = cProfile.Profile()
    profile.enable()
    runner.run()
    profile.disable()
    stats = pstats.Stats(profile)
    layers = ledger.profile_by_layer(stats)
    assert sum(v["calls"] for v in layers.values()) == stats.total_calls
    total_self = sum(row[2] for row in stats.stats.values())
    assert abs(sum(v["self_s"] for v in layers.values()) - total_self) < 1e-9
    assert layers["sim"]["calls"] > 0 and layers["rtree"]["calls"] > 0


def test_spans_leave_the_simulation_unchanged():
    plain = ExperimentRunner(small_config())
    expected = result_fingerprint(plain.run())
    runner = ExperimentRunner(small_config())
    rec = ledger.install(runner.sim)
    try:
        got = result_fingerprint(runner.run())
    finally:
        rec.uninstall()
    assert got == expected
    assert rec.counts["PolicySession.execute"] == 4 * 40
    # A span shares its parent's request id (a parent still open when
    # the run ended has no record).
    by_id = {span[0]: span for span in rec.spans}
    for span_id, parent, request_id, _name, start, end in rec.spans:
        assert start <= end
        if parent in by_id:
            assert by_id[parent][2] == request_id
    served = [s for s in rec.spans if s[3] == "RTreeServer.handle_request"]
    roots = {s[0] for s in rec.spans if s[3] == "PolicySession.execute"}
    assert served and all(s[2] in roots for s in served)


def test_check_exact_flags_a_wrong_answer():
    dataset = uniform_dataset(500, seed=3)
    tree = bulk_load(dataset)
    query = Rect(0.2, 0.2, 0.6, 0.6)
    right = tree.search(query).matches
    assert right
    request = Request(OP_SEARCH, query)
    assert workloads.check_exact([(request, right)], tree) == 0
    assert workloads.check_exact([(request, right[1:])], tree) == 1


def test_check_bracketed_flags_planted_errors():
    dataset = uniform_dataset(500, seed=3)
    reference = bulk_load(dataset)
    final = bulk_load(dataset)
    query = Rect(0.2, 0.2, 0.6, 0.6)
    new_rect = Rect(0.3, 0.3, 0.31, 0.31)
    insert = Request(OP_INSERT, new_rect, data_id=10_000)
    final.insert(new_rect, 10_000)
    search = Request(OP_SEARCH, query)
    base = reference.search(query).matches
    inserted = [(new_rect, 10_000)]

    def misses(answer, final_tree=final):
        return workloads.check_bracketed(
            [(insert, []), (search, answer)], inserted, reference,
            final_tree)

    assert misses(base) == 0
    assert misses(base + [(new_rect, 10_000)]) == 0
    assert misses(base[1:]) == 1                       # lost a loaded item
    assert misses(base + [(new_rect, 10_001)]) == 1    # invented an item
    assert misses(base + [base[0]]) == 1               # duplicated an item
    assert misses(base, final_tree=reference) == 1     # lost an acked insert


def test_routed_oracles_flag_a_wrong_answer():
    config = small_config(scheme="catfish-sharded", n_shards=4,
                          requests_per_client=20)
    runner = ShardedExperimentRunner(config, record_results=True)
    runner.run()
    from repro.shard.verify import verify_routed_results
    assert verify_routed_results(runner).ok
    victim = next(result for router in runner.routers
                  for _i, _req, result, _t in router.log if result.results)
    victim.results = victim.results[1:]
    summary = verify_routed_results(runner)
    assert summary.complete_mismatches == 1


def test_open_loop_oracle_flags_a_wrong_answer():
    config = small_config(
        scheme="catfish-sharded", n_shards=4,
        traffic=TrafficConfig(kind="poisson", rate=50_000.0,
                              duration_s=1e-3, n_aggregates=2,
                              users_per_aggregate=16, sessions=2))
    runner = TrafficRunner(config, record=True)
    runner.run()
    jobs = runner.mux.finished_jobs
    assert jobs and workloads.check_jobs(runner, jobs) == 0
    victim = next(job for job in jobs if job.results.results)
    victim.results.results = victim.results.results[1:]
    assert workloads.check_jobs(runner, jobs) == 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        ledger.PER_LAYER_UNITS


def test_beyond_counts_samples_above_the_percentile():
    assert workloads.beyond(9600, 99) == 96
    assert workloads.beyond(4965, 99) == 49
    assert workloads.beyond(100, 50) == 50
