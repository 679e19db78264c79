"""Substrate performance benchmark: kernel, scan kernels, end-to-end.

The paper's experiments all grind through two hot layers: the DES kernel
(every simulated RDMA op is a heap push/pop, an event and a generator
resume) and the R-tree scan kernels (every node visit scans up to 64
entries).  This module measures both in isolation plus one Fig-10-shaped
end-to-end run, and records the numbers in ``BENCH_perf.json`` so every PR
has a wall-clock trajectory to compare against.

Three kernels:

* ``kernel`` — pure DES event churn: timeout-heavy processes plus
  event ping-pong, reported as **events/second**;
* ``search`` — R-tree range scans over a bulk-loaded tree, reported as
  **node visits/second**;
* ``end_to_end`` — two Fig-10-shaped runs, reported as summed **wall
  seconds** (simulated results are also recorded so a perf PR can prove
  it did not change simulated time): an *adaptive* catfish point loaded
  past the offload threshold (both the server-side and the client-side
  traversal paths execute) and a pure *offload* point (one-sided reads,
  the serializer/snapshot path).  Only the simulation run is timed —
  dataset generation and bulk loading happen before the clock starts.

Artifact schema (``catfish-perf/v1``)::

    {
      "schema": "catfish-perf/v1",
      "scale": "small",
      "baseline": {<run>} | null,     # captured before an optimization PR
      "current":  {<run>},            # the latest measurement
      "speedup":  {"kernel": x, "search": x, "end_to_end": x}
    }

where ``<run>`` is::

    {
      "kernel_events_per_s": float,
      "search_visits_per_s": float,
      "end_to_end": {
        "wall_s": float,              # sum over points
        "points": {                   # per-point detail
          "<name>": {
            "wall_s": float,
            "sim_elapsed_s": float,   # simulated seconds (must not change)
            "throughput_kops": float, # simulated throughput (ditto)
            "total_requests": int
          }, ...
        }
      },
      "repeats": int,                 # each stage ran this many times
      "total_wall_s": float
    }

All wall-clock numbers are **best-of-``repeats``** (min wall / max rate):
the minimum is the standard noise-robust estimator for benchmarks whose
true cost is constant and whose noise is strictly additive (scheduler
preemption, cache pollution from neighbours).  The end-to-end stage runs
*first*, before the kernel/search loops have churned the allocator.

Usage::

    python -m repro perf                  # measure, write BENCH_perf.json
    python -m repro perf --baseline       # record as the pre-PR baseline
    python benchmarks/bench_perf_substrate.py   # same, stand-alone
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

DEFAULT_OUT = "BENCH_perf.json"

#: Work sizes per CATFISH_BENCH_SCALE preset (kept deliberately smaller
#: than the figure benches: this harness runs on every perf-minded PR).
SCALE_PARAMS = {
    "small": dict(
        kernel_loops=150_000,
        search_queries=10_000,
        dataset_size=40_000,
        e2e_clients=32,
        e2e_requests=200,
    ),
    "medium": dict(
        kernel_loops=120_000,
        search_queries=6_000,
        dataset_size=200_000,
        e2e_clients=64,
        e2e_requests=400,
    ),
    "large": dict(
        kernel_loops=400_000,
        search_queries=20_000,
        dataset_size=2_000_000,
        e2e_clients=128,
        e2e_requests=1000,
    ),
}


def bench_scale() -> str:
    name = os.environ.get("CATFISH_BENCH_SCALE", "small")
    if name not in SCALE_PARAMS:
        raise KeyError(
            f"CATFISH_BENCH_SCALE={name!r}; known: {sorted(SCALE_PARAMS)}"
        )
    return name


# -- kernel events/sec -------------------------------------------------------


def bench_kernel_events(loops: int, repeats: int = 1) -> Dict[str, float]:
    """DES event churn: timeouts, manual events, process chains.

    Each loop iteration schedules/processes a fixed basket of events, so
    the shape of the workload (the alloc/heap/resume mix of a simulated
    RDMA op) is identical across PRs and events/sec is comparable.
    """
    from .sim.kernel import Simulator

    # Per loop iteration: 2 Timeout events + 1 manual event + the partner
    # resume = a realistic op's worth of kernel traffic.
    events_per_loop = 3

    def worker(sim, loops):
        for _ in range(loops):
            yield sim.timeout(1.0)
            ev = sim.event()
            ev.succeed(None)
            yield ev
            yield sim.timeout(0.5)

    n_workers = 4
    wall = None
    for _ in range(max(1, repeats)):
        sim = Simulator()
        for _ in range(n_workers):
            sim.process(worker(sim, loops // n_workers))
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    total_events = loops // n_workers * n_workers * events_per_loop
    return {"events": total_events, "wall_s": wall,
            "events_per_s": total_events / wall}


# -- R-tree search visits/sec ------------------------------------------------


def bench_search_visits(dataset_size: int,
                        n_queries: int,
                        repeats: int = 1) -> Dict[str, float]:
    """Range scans over a bulk-loaded tree (the server's scan kernel)."""
    from .rtree.bulk import bulk_load
    from .rtree.geometry import Rect
    from .sim.rng import RngRegistry
    from .workloads.datasets import uniform_dataset

    items = uniform_dataset(dataset_size, seed=0)
    tree = bulk_load(items)
    rng = RngRegistry(0).stream("perf-search")
    side = 0.02  # a mid-size query: a few leaf nodes per search
    queries = []
    for _ in range(n_queries):
        cx = rng.uniform(side, 1.0 - side)
        cy = rng.uniform(side, 1.0 - side)
        queries.append(Rect(cx - side / 2, cy - side / 2,
                            cx + side / 2, cy + side / 2))
    wall = None
    for _ in range(max(1, repeats)):
        visits = 0
        matches = 0
        start = time.perf_counter()
        for query in queries:
            result = tree.search(query)
            visits += result.nodes_visited
            matches += result.count
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    return {"queries": n_queries, "visits": visits, "matches": matches,
            "wall_s": wall, "visits_per_s": visits / wall}


#: Queries per shared-frontier group in the batched search stage.  The
#: amortization factor is bounded by (group size x visits-per-query) /
#: tree size, so the group must be deep enough for queries to overlap;
#: 4096 over the 40k-item small tree revisits each hot node ~25x fewer
#: times than sequential search does.
BATCH_GROUP_SIZE = 4096


def bench_search_visits_batched(dataset_size: int,
                                n_queries: int,
                                repeats: int = 1,
                                batch_size: int = BATCH_GROUP_SIZE
                                ) -> Dict[str, float]:
    """The same scans through the cross-query batch engine.

    Identical tree, identical query stream, identical per-query results
    (asserted); ``visits`` counts the same per-query node visits as the
    sequential stage, so visits/s is directly comparable — the batch
    engine's whole advantage is doing those visits as shared (Q x E)
    matrix evaluations, each tree node scanned once per group.
    """
    from .rtree.batch import BatchSearchEngine
    from .rtree.bulk import bulk_load
    from .rtree.geometry import Rect
    from .sim.rng import RngRegistry
    from .workloads.datasets import uniform_dataset

    items = uniform_dataset(dataset_size, seed=0)
    tree = bulk_load(items)
    rng = RngRegistry(0).stream("perf-search")
    side = 0.02
    queries = []
    for _ in range(n_queries):
        cx = rng.uniform(side, 1.0 - side)
        cy = rng.uniform(side, 1.0 - side)
        queries.append(Rect(cx - side / 2, cy - side / 2,
                            cx + side / 2, cy + side / 2))
    groups = [queries[i:i + batch_size]
              for i in range(0, len(queries), batch_size)]
    wall = None
    for _ in range(max(1, repeats)):
        engine = BatchSearchEngine(tree)
        visits = 0
        matches = 0
        start = time.perf_counter()
        for group in groups:
            for result in engine.search_batch(group):
                visits += result.nodes_visited
                matches += result.count
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    return {"queries": n_queries, "batch_size": batch_size,
            "visits": visits, "matches": matches,
            "shared_visits": engine.shared_visits,
            "wall_s": wall, "visits_per_s": visits / wall}


# -- end-to-end Fig-10-shaped run --------------------------------------------


def _e2e_config(params: Dict[str, Any], seed: int = 0):
    from .client.adaptive import AdaptiveParams
    from .cluster.config import ExperimentConfig

    heartbeat = 0.25e-3
    return ExperimentConfig(
        scheme="catfish",
        fabric="ib-100g",
        n_clients=params["e2e_clients"],
        requests_per_client=params["e2e_requests"],
        workload_kind="search",
        scale="0.001",
        dataset_size=params["dataset_size"],
        heartbeat_interval=heartbeat,
        adaptive=AdaptiveParams(N=8, T=0.95, Inv=heartbeat),
        seed=seed,
    )


def _e2e_points(params: Dict[str, Any]):
    """The two timed experiment points (see module docstring).

    The adaptive point is loaded to ~1.5x the base client count: that is
    past Algorithm 1's busy threshold at the small/medium scales, so a
    realistic fraction of its requests take the offloaded path while the
    rest exercise the server-side fast-messaging path.
    """
    from dataclasses import replace

    base = _e2e_config(params)
    adaptive_clients = int(params["e2e_clients"] * 1.5)
    return [
        ("adaptive", replace(base, n_clients=adaptive_clients)),
        ("offload", replace(base, scheme="rdma-offloading")),
    ]


def _time_point(config, repeats: int):
    """Best-of-``repeats`` wall for one point; setup is never timed.

    Every repeat re-runs the identical deterministic experiment, so the
    simulated results are asserted equal across repeats and only the wall
    clock varies.
    """
    from .cluster.builder import ExperimentRunner

    wall = None
    result = None
    for _ in range(max(1, repeats)):
        runner = ExperimentRunner(config)  # dataset + bulk load: untimed
        start = time.perf_counter()
        run = runner.run()
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
        if result is not None and run.throughput_kops != result.throughput_kops:
            raise AssertionError(
                "non-deterministic end-to-end run: "
                f"{run.throughput_kops} != {result.throughput_kops} Kops"
            )
        result = run
    return wall, result


def bench_end_to_end(params: Dict[str, Any],
                     repeats: int = 1) -> Dict[str, Any]:
    """Both e2e points, timed."""
    points: Dict[str, Dict[str, Any]] = {}
    wall_sum = 0.0
    for name, config in _e2e_points(params):
        wall, result = _time_point(config, repeats)
        wall_sum += wall
        points[name] = {
            "wall_s": wall,
            "sim_elapsed_s": result.elapsed_s,
            "throughput_kops": result.throughput_kops,
            "total_requests": result.total_requests,
        }
    return {"wall_s": wall_sum, "points": points}


# -- driver ------------------------------------------------------------------


DEFAULT_REPEATS = 3


def run_perf(scale: Optional[str] = None,
             repeats: int = DEFAULT_REPEATS,
             log=print) -> Dict[str, Any]:
    """Run all three kernels at ``scale``; returns one ``<run>`` dict.

    The end-to-end stage runs first (cleanest process state); every stage
    reports its best-of-``repeats`` wall clock.
    """
    name = scale or bench_scale()
    params = SCALE_PARAMS[name]
    total_start = time.perf_counter()
    log(f"[perf] scale={name} repeats={repeats}")
    e2e = bench_end_to_end(params, repeats=repeats)
    detail = ", ".join(
        f"{pname} {p['wall_s']:.2f}s/{p['throughput_kops']:.0f}Kops"
        for pname, p in e2e["points"].items()
    )
    log(f"[perf] end-to-end: {e2e['wall_s']:.2f}s wall ({detail})")
    kernel = bench_kernel_events(params["kernel_loops"], repeats=repeats)
    log(f"[perf] kernel: {kernel['events_per_s']:,.0f} events/s "
        f"({kernel['wall_s']:.2f}s)")
    search = bench_search_visits(params["dataset_size"],
                                 params["search_queries"],
                                 repeats=repeats)
    log(f"[perf] search: {search['visits_per_s']:,.0f} visits/s "
        f"({search['wall_s']:.2f}s)")
    from .rtree.batch import kernel_name
    batched = bench_search_visits_batched(params["dataset_size"],
                                          params["search_queries"],
                                          repeats=repeats)
    if batched["matches"] != search["matches"] or (
            batched["visits"] != search["visits"]):
        raise AssertionError(
            "batched search diverged from sequential: "
            f"{batched['matches']}/{batched['visits']} != "
            f"{search['matches']}/{search['visits']}"
        )
    log(f"[perf] search_batched: {batched['visits_per_s']:,.0f} visits/s "
        f"({batched['wall_s']:.2f}s, Q={batched['batch_size']}, "
        f"kernel={kernel_name()}, "
        f"{batched['visits'] / max(1, batched['shared_visits']):.1f} "
        f"queries/shared visit)")
    return {
        "kernel_events_per_s": kernel["events_per_s"],
        "search_visits_per_s": search["visits_per_s"],
        "search_batched_visits_per_s": batched["visits_per_s"],
        "scan_kernel": kernel_name(),
        "end_to_end": e2e,
        "repeats": repeats,
        "total_wall_s": time.perf_counter() - total_start,
    }


def _speedups(baseline: Dict[str, Any],
              current: Dict[str, Any]) -> Dict[str, float]:
    out = {
        "kernel": (current["kernel_events_per_s"]
                   / baseline["kernel_events_per_s"]),
        "search": (current["search_visits_per_s"]
                   / baseline["search_visits_per_s"]),
        "end_to_end": (baseline["end_to_end"]["wall_s"]
                       / current["end_to_end"]["wall_s"]),
    }
    # The batched trajectory appeared after the baseline was captured;
    # compare against the baseline's *sequential* rate (the honest
    # question: how much faster is a batch-capable run than the old
    # per-query scans), guarding older artifacts.
    if "search_batched_visits_per_s" in current:
        out["search_batched"] = (current["search_batched_visits_per_s"]
                                 / baseline["search_visits_per_s"])
    return out


def write_perf_json(path: str, run: Dict[str, Any], scale: str,
                    baseline: bool = False, log=print) -> Dict[str, Any]:
    """Merge ``run`` into the artifact at ``path`` (see module docstring)."""
    doc: Dict[str, Any] = {
        "schema": "catfish-perf/v1",
        "scale": scale,
        "baseline": None,
        "current": None,
    }
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                prior = json.load(fh)
            if prior.get("schema") == doc["schema"]:
                doc.update(prior)
        except (OSError, ValueError):
            pass
    doc["scale"] = scale
    if baseline:
        doc["baseline"] = run
    else:
        doc["current"] = run
    if doc.get("baseline") and doc.get("current"):
        doc["speedup"] = _speedups(doc["baseline"], doc["current"])
        batched = doc["speedup"].get("search_batched")
        log(f"[perf] speedup vs baseline: "
            f"kernel {doc['speedup']['kernel']:.2f}x, "
            f"search {doc['speedup']['search']:.2f}x, "
            + (f"search-batched {batched:.2f}x, "
               if batched is not None else "")
            + f"end-to-end {doc['speedup']['end_to_end']:.2f}x")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log(f"[perf] artifact -> {path}")
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="substrate perf benchmark (kernel / search / e2e)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"artifact path (default {DEFAULT_OUT})")
    parser.add_argument("--baseline", action="store_true",
                        help="record this run as the pre-PR baseline")
    parser.add_argument("--scale", default=None,
                        choices=sorted(SCALE_PARAMS),
                        help="work size (default: $CATFISH_BENCH_SCALE)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="runs per stage; best (min wall) is recorded")
    args = parser.parse_args(argv)
    scale = args.scale or bench_scale()
    run = run_perf(scale, repeats=args.repeats)
    write_perf_json(args.out, run, scale, baseline=args.baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
