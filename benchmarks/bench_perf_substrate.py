"""Substrate perf-regression harness (wall-clock, not simulated time).

Measures kernel events/sec, R-tree search visits/sec and one Fig-10-shaped
end-to-end wall-clock, and writes ``BENCH_perf.json`` — see
``repro.perfbench`` for the kernels and the artifact schema, and
``docs/performance.md`` for the recorded trajectory.

Run stand-alone (preferred for stable numbers)::

    PYTHONPATH=src python benchmarks/bench_perf_substrate.py [--baseline]

or via the CLI (``python -m repro perf``).  Under pytest the module is
marked ``perf`` and excluded from the default (tier-1) run::

    python -m pytest benchmarks/bench_perf_substrate.py -m perf
"""

import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.perfbench import (  # noqa: E402
    SCALE_PARAMS,
    bench_end_to_end,
    bench_kernel_events,
    bench_search_visits,
    main,
)

pytestmark = pytest.mark.perf


def test_perf_kernel_smoke():
    """The kernel bench runs and reports a sane rate (tiny work size)."""
    out = bench_kernel_events(2_000)
    assert out["events"] > 0
    assert out["events_per_s"] > 0


def test_perf_search_smoke():
    out = bench_search_visits(dataset_size=5_000, n_queries=50)
    assert out["visits"] > 0
    assert out["matches"] > 0


def test_perf_end_to_end_smoke():
    params = dict(SCALE_PARAMS["small"], e2e_clients=4, e2e_requests=10,
                  dataset_size=5_000)
    out = bench_end_to_end(params)
    assert out["wall_s"] > 0
    assert set(out["points"]) == {"adaptive", "offload"}
    # adaptive point runs at 1.5x the base client count
    assert out["points"]["adaptive"]["total_requests"] == 60
    assert out["points"]["offload"]["total_requests"] == 40
    for point in out["points"].values():
        assert point["sim_elapsed_s"] > 0
        assert point["throughput_kops"] > 0


if __name__ == "__main__":
    sys.exit(main())
