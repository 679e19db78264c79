"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 catbench/run.py --workload search-adaptive --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload (fresh set-up each time) for about
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` makes
one untraced run, one under the profiler and one with spans at the
layer boundaries, and reports the per-layer metrics.  Every run's
answers are checked against an oracle, and every run must reproduce the
simulated outcome of the first run of its workload and seed bit for
bit.  The last line of standard output is one JSON object; see
``catbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run-time state and trace output (ignored by git).
STATE_DIR = os.path.join(ROOT, ".catbench")

#: Each timed run repeats its workload at least this many times ...
MIN_RUNS = 4
#: ... and sets the deployment up at least this many times, and more
#: (up to ``MAX_SETUPS``) while set-ups have taken under
#: ``SETUP_BUDGET_S`` in all, so a cheap set-up is still timed steadily.
MIN_SETUPS = 7
MAX_SETUPS = 30
SETUP_BUDGET_S = 2.0

END_TO_END_UNITS = {
    "sim_events_per_req": "events/req", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_kops": "Kops", "sim_p50_us": "us", "sim_p99_us": "us",
}


class DeterminismError(Exception):
    """A run's simulated outcome differs from its workload's first run."""


def load_program() -> None:
    """Put the program's sources on the path, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)


def code_digest() -> str:
    """Digest of the program and workload sources; keys the reference
    outcomes so a changed program starts a fresh reference."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "catbench", "workloads.py")]
    for base, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        paths.extend(os.path.join(base, f) for f in files if f.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def check_reference(name: str, subseed: int, outcome) -> None:
    """Compare ``outcome`` with the first recorded run of this workload
    and input seed under this program (recording it if there is none)."""
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, "reference.json")
    try:
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    key = f"{code_digest()}:{name}:{subseed}"
    mine = json.loads(json.dumps(outcome.sim_key()))
    if key in table:
        if table[key] != mine:
            raise DeterminismError(
                f"{name} input seed {subseed}: simulated outcome differs "
                f"from the first run's: {mine} != {table[key]}")
        return
    table[key] = mine
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def one_run(workload, subseed, profile=None, trace=False):
    """Set up, run (timed) and check ``workload`` on one input seed.

    Returns ``(setup_s, run_s, outcome, extra)``; ``extra`` holds the
    runner, result and span recorder of a traced run.
    """
    gc.collect()
    t0 = time.perf_counter()
    runner = workload.build(subseed)
    setup_s = time.perf_counter() - t0
    recorder = None
    if trace:
        from catbench import ledger
        recorder = ledger.install(runner.sim)
    gc.collect()
    try:
        if profile is not None:
            profile.enable()
        t0 = time.perf_counter()
        result = runner.run()
        run_s = time.perf_counter() - t0
    finally:
        if profile is not None:
            profile.disable()
        if recorder is not None:
            recorder.uninstall()
    outcome = workload.check(runner, result)
    return setup_s, run_s, outcome, (runner, result, recorder)


def timed_runs(workload, seconds: float, subseeds, min_runs: int):
    """Run ``workload`` for about ``seconds``, cycling through
    ``subseeds`` (input seeds).

    Runs whole cycles, so every input seed is run equally often, and
    starts another only if it should end within ``seconds``; the first
    cycle and ``min_runs`` runs are always made.  Every run must
    reproduce the simulated outcome of the first run of its input seed.
    Returns ``(runs, firsts)``: ``runs`` holds ``(subseed, setup_s,
    run_s, outcome)`` and ``firsts`` the first outcome of each input
    seed, in order.
    """
    runs = []
    firsts = {}
    start = time.perf_counter()
    while True:
        if len(runs) >= min_runs and len(runs) % len(subseeds) == 0:
            elapsed = time.perf_counter() - start
            cycle = elapsed * len(subseeds) / len(runs)
            if elapsed + cycle > seconds:
                break
        subseed = subseeds[len(runs) % len(subseeds)]
        setup_s, run_s, outcome, _ = one_run(workload, subseed)
        first = firsts.get(subseed)
        if first is None:
            firsts[subseed] = outcome
            check_reference(workload.name, subseed, outcome)
        elif outcome.sim_key() != first.sim_key():
            raise DeterminismError(
                f"input seed {subseed}: run {len(runs) + 1} differs from "
                f"the first: {outcome.sim_key()} != {first.sim_key()}")
        runs.append((subseed, setup_s, run_s, outcome))
    return runs, [firsts[s] for s in subseeds]


def setup_times(workload, runs):
    """The runs' set-up times, topped up with set-ups of their own
    (see :data:`MIN_SETUPS`)."""
    subseeds = workload.subseeds
    setups = [r[1] for r in runs]
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S):
        gc.collect()
        t0 = time.perf_counter()
        workload.build(subseeds[len(setups) % len(subseeds)])
        setups.append(time.perf_counter() - t0)
    return setups


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runs, setups, firsts):
    """The end-to-end metrics of a set of agreeing runs; simulated
    metrics pool the requests of every input seed."""
    from catbench.workloads import pooled

    return {
        **pooled(firsts),
        "req_per_wall_s": req_per_wall_s(runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def req_per_wall_s(runs) -> float:
    """Simulated requests per wall second of the timed runs (median)."""
    return statistics.median(o.samples / run_s for _i, _s, run_s, o in runs)


def print_end_to_end(workload, runs, setups, firsts, metrics) -> None:
    print(f"workload {workload.name}  seed {workload.seed}  "
          f"input seeds {workload.subseeds}  runs {len(runs)}  "
          f"set-ups {len(setups)}")
    print(f"  {workload.why}")
    total = sum(o.samples for o in firsts)
    sims = f"simulated, {total} requests of all input seeds"
    rows = [
        ("sim_events_per_req", "lower", "kernel events per request"),
        ("setup_s", "lower", f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", "lower", "whole process"),
        ("sim_kops", "higher", sims),
        ("sim_p50_us", "lower", sims),
        ("sim_p99_us", "lower",
         f"simulated, median of {len(firsts)} input seeds' p99, each "
         f"with {min(o.beyond_p99 for o in firsts)}+ samples beyond"),
    ]
    for name, better, note in rows:
        print(f"  {name:<18} {metrics[name]:>14.4f} "
              f"{END_TO_END_UNITS[name]:<10} {better:<7} {note}")
    print(f"  {'req_per_wall_s':<18} {metrics['req_per_wall_s']:>14.4f} "
          f"{'1/s':<10} {'higher':<7} median of {len(runs)} runs; host "
          f"speed, not in the JSON (see README)")
    failed = sum(o.failed for o in firsts)
    misses = sum(o.mismatches for o in firsts)
    attempted = sum(o.attempted for o in firsts)
    print(f"  {'fail_ratio':<18} {(failed + misses) / attempted:>14.4f} "
          f"{'1':<10} {'lower':<7} ({failed} failed or shed + {misses} "
          f"oracle misses) / {attempted}")
    rates = " ".join(f"{o.samples / run_s:.0f}" for _i, _s, run_s, o in runs)
    print(f"  req_per_wall_s of each run: {rates}")
    for subseed, o in zip(workload.subseeds, firsts):
        notes = ", ".join(f"{k} {v:g}" for k, v in o.notes.items())
        print(f"  input seed {subseed}: {o.sim_kops:.2f} Kops, p50 "
              f"{o.sim_p50_us:.2f} us, p99 {o.sim_p99_us:.2f} us "
              f"({o.samples} samples, {o.beyond_p99} beyond p99), "
              f"fingerprint {o.fingerprint}; {notes}")


def traced(workload, runs, firsts):
    """Two more runs of the input seed of ``runs``, one under the
    profiler and one with the boundary spans; returns the per-layer
    metrics.

    They are separate so the spans' own cost stays out of the profile;
    each must reproduce the untraced run's simulated outcome.
    """
    from catbench import ledger

    subseed = workload.subseeds[0]
    reference = firsts[0].sim_key()
    profile = cProfile.Profile()
    _setup, profiled_s, outcome, _ = one_run(workload, subseed,
                                             profile=profile)
    if outcome.sim_key() != reference:
        raise DeterminismError("the profiled run's simulated outcome "
                               "differs from the untraced runs'")
    _setup, traced_s, outcome, (runner, result, rec) = one_run(
        workload, subseed, trace=True)
    if outcome.sim_key() != reference:
        raise DeterminismError("the traced run's simulated outcome "
                               "differs from the untraced runs'")
    stats = pstats.Stats(profile)
    layers = ledger.profile_by_layer(stats)
    untraced = statistics.median(
        run_s for i, _s, run_s, _o in runs if i == subseed)
    overhead = 100.0 * (traced_s / untraced - 1.0)
    metrics = ledger.layer_metrics(runner, result, outcome, layers, stats,
                                   rec, overhead)
    metrics["sim.req_per_wall_s"] = req_per_wall_s(runs)
    spans = os.path.join(STATE_DIR, f"spans-{workload.name}-{subseed}.jsonl")
    rec.write(spans)
    print(f"{workload.name} input seed {subseed}: untraced {untraced:.2f} s, "
          f"profiled {profiled_s:.2f} s, traced {traced_s:.2f} s; "
          f"{len(rec.spans)} spans -> {os.path.relpath(spans, ROOT)}")
    print(ledger.format_table(layers, metrics, outcome.attempted))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from catbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            from catbench.ledger import PER_LAYER_UNITS as units
            runs, firsts = timed_runs(workload, 0.0, workload.subseeds[:1], 1)
            values = traced(workload, runs, firsts)
        else:
            units = END_TO_END_UNITS
            runs, firsts = timed_runs(workload, args.seconds,
                                      workload.subseeds, MIN_RUNS)
            setups = setup_times(workload, runs)
            values = end_to_end(runs, setups, firsts)
            print_end_to_end(workload, runs, setups, firsts, values)
    except DeterminismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outcomes = [o for _i, _s, _r, o in runs]
    mismatches = sum(o.mismatches for o in outcomes)
    if mismatches:
        print(f"error: {mismatches} answers failed the oracle",
              file=sys.stderr)
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed + o.mismatches for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
