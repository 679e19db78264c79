"""Per-layer ledger of one traced run: profile by package, spans at
layer boundaries, and the per-layer metrics derived from both.

Layers are the ``src/repro`` packages.  Two sources feed the ledger:

* ``cProfile`` over the timed simulation.  Its per-function call counts
  are exact; its self times are host time, inflated by the profiler.
  Both are summed by the package the function lives in.
* A :class:`SpanRecorder` that wraps the public boundaries named in
  :func:`install` for the length of the run.  Each call becomes a
  span (name, simulated start and end, parent span, request id) and
  feeds named counts.  Spans are kept in memory and written out once.

Nothing here changes what the simulation computes: the wrappers pass
every argument, value and exception through, and the traced run's
simulated outcome is compared bit for bit with the untraced one's.
"""

from __future__ import annotations

import inspect
import json
import os
import pstats
import statistics
import sys
import weakref
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import repro

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Layer of every ``repro`` package (and of the top-level modules, keyed
#: by "").  Index structures other than the R-tree count as ``rtree``,
#: deployment assembly and fault injection as ``runtime``, request
#: generation as ``client``.
LAYER_OF = {
    "sim": "sim", "net": "net", "transport": "transport", "msg": "msg",
    "hw": "hw", "rtree": "rtree", "server": "server", "client": "client",
    "runtime": "runtime", "shard": "shard", "traffic": "traffic",
    "obs": "obs",
    "btree": "rtree", "cuckoo": "rtree",
    "cluster": "runtime", "faults": "runtime", "workloads": "client",
    "": "runtime",
}

#: The layers, in the order the ledger prints them.
LAYERS = ("sim", "net", "transport", "msg", "hw", "rtree", "server",
          "client", "runtime", "shard", "traffic", "obs")

#: Buckets for code outside ``repro``: the benchmark's own wrappers and
#: everything else (builtins, standard library, numpy).
BENCH, OTHER = "bench", "other"


def layer_of_file(filename: str) -> str:
    """Layer of the code in ``filename`` (``bench``/``other`` outside
    ``repro``)."""
    path = os.path.abspath(filename) if os.sep in filename else filename
    if path.startswith(REPRO_DIR + os.sep):
        rel = path[len(REPRO_DIR) + 1:]
        package = rel.split(os.sep, 1)[0] if os.sep in rel else ""
        return LAYER_OF[package]
    if path.startswith(BENCH_DIR + os.sep):
        return BENCH
    return OTHER


def profile_by_layer(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """Sum a profile's per-function call counts and self times by layer.

    Returns ``{layer: {"calls": n, "self_s": s}}`` with an entry for
    every layer in :data:`LAYERS` plus ``bench`` and ``other``.
    """
    out = {name: {"calls": 0, "self_s": 0.0}
           for name in LAYERS + (BENCH, OTHER)}
    for (filename, _line, _func), row in stats.stats.items():
        _cc, ncalls, self_s, _cum, _callers = row
        bucket = out[layer_of_file(filename)]
        bucket["calls"] += ncalls
        bucket["self_s"] += self_s
    return out


def profiled_calls(stats: pstats.Stats, path_suffix: str, func: str) -> int:
    """Calls of one function, matched by file suffix and name."""
    suffix = path_suffix.replace("/", os.sep)
    return sum(row[1] for (filename, _l, name), row in stats.stats.items()
               if name == func and filename.endswith(suffix))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# -- spans -----------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans and counts at the wrapped boundaries.

    A span's parent is the nearest enclosing wrapped call on the Python
    stack; a generator chain resumed by the kernel keeps its frames, so
    nesting survives simulated waits.  Work the chain hands to another
    process keeps its request id in two ways: a process started under a
    span inherits it (``Simulator.process`` is wrapped for that), and
    objects passed along (a request handed to the mux, a wire message
    reserved in a ring and later served) carry the id of the request
    that first touched them.  A span with no such link starts a request.
    """

    def __init__(self, sim):
        self.sim = sim
        #: (span_id, parent_id, request_id, name, start_s, end_s)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._next_id = 0
        #: id(frame) -> (span_id, request_id) of live wrapped calls and
        #: of process roots started under a span.
        self._frames: Dict[int, Tuple[int, int]] = {}
        #: Process root frames registered in ``_frames``, kept alive until
        #: their generator dies so a frame id is never reused meanwhile.
        self._roots: Dict[int, object] = {}
        #: id(obj) -> (request_id, obj); the object is kept alive so its
        #: id is not reused during the run.
        self._owners: Dict[int, Tuple[int, object]] = {}
        self._patches: List[Tuple[type, str, object]] = []

    # -- context -----------------------------------------------------------

    def _enclosing(self, frame) -> Optional[Tuple[int, int]]:
        frames = self._frames
        while frame is not None:
            ctx = frames.get(id(frame))
            if ctx is not None:
                return ctx
            frame = frame.f_back
        return None

    def begin(self, frame, anchor=None) -> Tuple[int, int, int, float]:
        """Open a span for the wrapped call running in ``frame``."""
        self._next_id += 1
        span_id = self._next_id
        # A wrapped generator started as a process root carries the
        # context registered by ``follow_processes`` on its own frame.
        ctx = self._frames.get(id(frame)) or self._enclosing(frame.f_back)
        if ctx is not None:
            parent, request_id = ctx
        else:
            parent = 0
            owner = (self._owners.get(id(anchor))
                     if anchor is not None else None)
            request_id = owner[0] if owner is not None else span_id
        if anchor is not None and id(anchor) not in self._owners:
            self._owners[id(anchor)] = (request_id, anchor)
        self._frames[id(frame)] = (span_id, request_id)
        return span_id, parent, request_id, self.sim.now

    def end(self, frame, token, name: str) -> float:
        span_id, parent, request_id, start = token
        if frame is not None:
            self._frames.pop(id(frame), None)
        now = self.sim.now
        self.spans.append((span_id, parent, request_id, name, start, now))
        self.counts[name] += 1
        return now - start

    # -- patching ----------------------------------------------------------

    def _patch(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def wrap(self, cls, attr: str, anchor_arg: Optional[int] = None,
             after=None, until_event: bool = False) -> None:
        """Record a span around every ``cls.attr`` call.

        ``anchor_arg`` is the index of the positional argument (after
        ``self``) that carries a request id across processes; ``after``
        is ``after(recorder, self, args, result, duration)``, run when
        the call returns.  With ``until_event`` the call returns a kernel
        event and the span ends when that event is processed.
        """
        orig = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        rec = self

        def anchor_of(args):
            if anchor_arg is None or len(args) <= anchor_arg:
                return None
            return args[anchor_arg]

        if inspect.isgeneratorfunction(orig):
            def wrapper(obj, *args, **kwargs):
                frame = sys._getframe()
                token = rec.begin(frame, anchor_of(args))
                try:
                    result = yield from orig(obj, *args, **kwargs)
                finally:
                    duration = rec.end(frame, token, name)
                if after is not None:
                    after(rec, obj, args, result, duration)
                return result
        else:
            def wrapper(obj, *args, **kwargs):
                frame = sys._getframe()
                token = rec.begin(frame, anchor_of(args))
                try:
                    result = orig(obj, *args, **kwargs)
                finally:
                    rec._frames.pop(id(frame), None)
                if until_event:
                    result.add_callback(
                        lambda _event: rec.end(None, token, name))
                    duration = 0.0
                else:
                    duration = rec.end(None, token, name)
                if after is not None:
                    after(rec, obj, args, result, duration)
                return result

        wrapper.__name__ = orig.__name__
        wrapper.__doc__ = orig.__doc__
        self._patch(cls, attr, wrapper)

    def follow_processes(self, sim_cls) -> None:
        """Let a process started under a span inherit its request id."""
        orig = sim_cls.__dict__["process"]
        frames = self._frames
        rec = self

        def process(sim, generator, name=""):
            ctx = rec._enclosing(sys._getframe().f_back)
            frame = getattr(generator, "gi_frame", None)
            if ctx is not None and frame is not None:
                key = id(frame)
                frames[key] = ctx
                rec._roots[key] = frame
                weakref.finalize(generator, rec._drop_root, key)
            return orig(sim, generator, name)

        self._patch(sim_cls, "process", process)

    def _drop_root(self, key: int) -> None:
        if self._roots.pop(key, None) is not None:
            self._frames.pop(key, None)

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, orig = self._patches.pop()
            setattr(cls, attr, orig)
        self._frames.clear()
        self._roots.clear()
        self._owners.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request_id, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request_id,
                    "name": name, "start_us": start * 1e6,
                    "end_us": end * 1e6,
                }) + "\n")


# -- boundary hooks --------------------------------------------------------------


def _on_rtree_search(rec, _tree, _args, result, _duration):
    rec.counts["rtree.visits"] += result.nodes_visited
    rec.counts["rtree.matches"] += result.count


def _on_offload_search(rec, _engine, args, result, duration):
    rec.counts["offload.queries"] += 1
    rec.counts["offload.matches"] += len(result)
    rec.samples["offload_us"].append(duration * 1e6)


def _on_offload_batch(rec, _engine, args, results, duration):
    rec.counts["offload.queries"] += len(results)
    rec.counts["offload.matches"] += sum(len(r) for r in results)
    rec.samples["offload_us"].append(duration * 1e6)


def _on_fm(rec, _session, _args, _result, duration):
    rec.samples["fm_us"].append(duration * 1e6)


def _on_post_read(rec, _qp, args, event, _duration):
    rec.counts["rdma.reads"] += 1


def _on_post_read_batch(rec, _qp, args, events, _duration):
    rec.counts["rdma.reads"] += len(events)


def _on_post_write(rec, _qp, _args, _event, _duration):
    rec.counts["rdma.writes"] += 1


def _on_transfer(rec, _link, args, _result, _duration):
    rec.counts["net.bytes"] += args[0]


def _on_reserve(rec, _ring, _args, _result, duration):
    rec.samples["ring_wait_us"].append(duration * 1e6)


def _on_core(rec, _pool, args, _result, duration):
    # Time spent queued for a core; the held time is exactly the cost.
    rec.samples["core_wait_us"].append(max(0.0, duration - args[0]) * 1e6)


def _on_handle(rec, _server, _args, _result, duration):
    rec.samples["service_us"].append(duration * 1e6)


def _on_lookup(rec, _cache, _args, view, _duration):
    rec.counts["cache.lookups"] += 1
    rec.counts["cache.hits"] += view is not None


def _on_route(rec, _router, _args, result, _duration):
    rec.counts["router.requests"] += 1
    rec.counts["router.fanout"] += len(result.statuses)


def install(sim) -> SpanRecorder:
    """Wrap the layer boundaries for one traced run."""
    from repro.client.fm_client import FmSession
    from repro.client.node_cache import NodeCache
    from repro.client.offload_client import OffloadEngine
    from repro.hw.cpu import CorePool
    from repro.msg.ringbuffer import RingBuffer
    from repro.net.link import Link
    from repro.rtree.rstar import RStarTree
    from repro.runtime.session import PolicySession
    from repro.server.base import RTreeServer
    from repro.shard.router import ScatterGatherRouter
    from repro.sim.kernel import Simulator
    from repro.traffic.mux import ConnectionMux
    from repro.transport.rdma import QpEndpoint

    rec = SpanRecorder(sim)
    rec.follow_processes(Simulator)
    rec.wrap(ConnectionMux, "offer", anchor_arg=0)
    rec.wrap(ScatterGatherRouter, "execute", anchor_arg=0, after=_on_route)
    rec.wrap(PolicySession, "execute", anchor_arg=0)
    rec.wrap(PolicySession, "execute_search_batch")
    rec.wrap(FmSession, "execute", anchor_arg=0, after=_on_fm)
    rec.wrap(OffloadEngine, "search", after=_on_offload_search)
    rec.wrap(OffloadEngine, "search_batch", after=_on_offload_batch)
    rec.wrap(NodeCache, "lookup", after=_on_lookup)
    rec.wrap(QpEndpoint, "post_read", after=_on_post_read, until_event=True)
    rec.wrap(QpEndpoint, "post_read_batch", after=_on_post_read_batch)
    rec.wrap(QpEndpoint, "post_write", after=_on_post_write,
             until_event=True)
    rec.wrap(Link, "transfer", after=_on_transfer)
    rec.wrap(RingBuffer, "reserve", anchor_arg=0, after=_on_reserve)
    rec.wrap(RTreeServer, "handle_request", anchor_arg=0, after=_on_handle)
    rec.wrap(CorePool, "execute", after=_on_core)
    rec.wrap(RStarTree, "search", after=_on_rtree_search)
    rec.wrap(RStarTree, "insert")
    return rec


# -- per-layer metrics -----------------------------------------------------------

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{f"{name}.calls_per_req": "calls/req" for name in LAYERS},
    **{f"{name}.self_pct": "%" for name in LAYERS},
    "sim.events_per_req": "events/req",
    "sim.resumes_per_req": "resumes/req",
    "sim.req_per_wall_s": "1/s",
    "rtree.nodes_visited_per_read": "nodes/read",
    "rtree.matches_per_visit": "ratio",
    "transport.rdma_reads_per_req": "reads/req",
    "transport.rdma_writes_per_req": "writes/req",
    "net.wire_bytes_per_req": "B/req",
    "client.chunks_per_offload": "chunks/req",
    "client.cache_hit_pct": "%",
    "client.torn_retries_per_kreq": "count/kreq",
    "client.restarts_per_kreq": "count/kreq",
    "client.offload_pct": "%",
    "runtime.fm_path_us_p50": "us",
    "runtime.offload_path_us_p50": "us",
    "msg.ring_wait_us_mean": "us",
    "hw.core_wait_us_mean": "us",
    "hw.server_cpu_util": "ratio",
    "server.service_us_p50": "us",
    "server.service_us_p99": "us",
    "shard.fanout_mean": "shards/req",
    "shard.rescatters": "count",
    "shard.splits": "count",
    "shard.items_migrated": "count",
    "traffic.mux_wait_us_p50": "us",
    "traffic.mux_wait_us_p99": "us",
    "traffic.shed_pct": "%",
    "obs.trace_overhead_pct": "%",
}


def _metric(doc: dict, name: str) -> float:
    entry = doc.get("metrics", {}).get(name)
    return float(entry["value"]) if entry else 0.0


def client_totals(runner) -> Dict[str, int]:
    """Client counters summed over every session of the deployment."""
    stats = getattr(runner, "client_stats", None)
    if stats is None:
        stats = runner.session_stats
    fields = ("offloaded_requests", "fast_messaging_requests",
              "torn_retries", "search_restarts")
    return {f: sum(int(getattr(s, f)) for s in stats) for f in fields}


def layer_metrics(runner, result, outcome, layers, stats, rec,
                  overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    requests = outcome.attempted
    total_self = sum(v["self_s"] for v in layers.values()) or 1.0
    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls_per_req"] = layers[name]["calls"] / requests
        out[f"{name}.self_pct"] = 100.0 * layers[name]["self_s"] / total_self

    counts, samples = rec.counts, rec.samples
    # The kernel numbers every event it schedules; the last number is
    # the run's event count.
    out["sim.events_per_req"] = runner.sim._seq / requests
    out["sim.resumes_per_req"] = profiled_calls(
        stats, "repro/sim/kernel.py", "_resume") / requests

    reads = counts["RStarTree.search"] + counts["offload.queries"]
    doc = result.metrics
    offload_nodes = (_metric(doc, "offload.chunks_fetched")
                     + _metric(doc, "cache.hits"))
    visits = counts["rtree.visits"] + offload_nodes
    out["rtree.nodes_visited_per_read"] = visits / reads if reads else 0.0
    matches = counts["rtree.matches"] + counts["offload.matches"]
    out["rtree.matches_per_visit"] = matches / visits if visits else 0.0

    clients = client_totals(runner)
    offloaded = clients["offloaded_requests"]
    routed = offloaded + clients["fast_messaging_requests"]
    out["transport.rdma_reads_per_req"] = counts["rdma.reads"] / requests
    out["transport.rdma_writes_per_req"] = counts["rdma.writes"] / requests
    out["net.wire_bytes_per_req"] = counts["net.bytes"] / requests
    out["client.chunks_per_offload"] = (
        _metric(doc, "offload.chunks_fetched") / offloaded
        if offloaded else 0.0)
    lookups = counts["cache.lookups"]
    out["client.cache_hit_pct"] = (100.0 * counts["cache.hits"] / lookups
                                   if lookups else 0.0)
    out["client.torn_retries_per_kreq"] = (
        1e3 * clients["torn_retries"] / requests)
    out["client.restarts_per_kreq"] = (
        1e3 * clients["search_restarts"] / requests)
    out["client.offload_pct"] = 100.0 * offloaded / routed if routed else 0.0

    out["runtime.fm_path_us_p50"] = percentile(samples["fm_us"], 50)
    out["runtime.offload_path_us_p50"] = percentile(samples["offload_us"], 50)
    ring = samples["ring_wait_us"]
    out["msg.ring_wait_us_mean"] = statistics.fmean(ring) if ring else 0.0
    core = samples["core_wait_us"]
    out["hw.core_wait_us_mean"] = statistics.fmean(core) if core else 0.0
    out["hw.server_cpu_util"] = result.server_cpu_utilization
    out["server.service_us_p50"] = percentile(samples["service_us"], 50)
    out["server.service_us_p99"] = percentile(samples["service_us"], 99)

    routes = counts["router.requests"]
    out["shard.fanout_mean"] = (counts["router.fanout"] / routes
                                if routes else 0.0)
    # Closed-loop sharded runners list their routers; the open loop's
    # mux sessions are its routers.
    routers = getattr(runner, "routers", None) or runner.sessions
    out["shard.rescatters"] = float(sum(
        int(r.router_stats.epoch_rescatters) for r in routers
        if hasattr(r, "router_stats")))
    rebalance = getattr(runner, "rebalance_stats", None)
    out["shard.splits"] = float(int(rebalance.splits)) if rebalance else 0.0
    out["shard.items_migrated"] = (float(int(rebalance.items_migrated))
                                   if rebalance else 0.0)

    mux = getattr(runner, "mux", None)
    waits = ([(j.t_start - j.t_arrival) * 1e6 for j in mux.finished_jobs]
             if mux is not None else [])
    out["traffic.mux_wait_us_p50"] = percentile(waits, 50)
    out["traffic.mux_wait_us_p99"] = percentile(waits, 99)
    shed = getattr(result, "shed_client_total", 0)
    out["traffic.shed_pct"] = 100.0 * shed / requests
    out["obs.trace_overhead_pct"] = overhead_pct
    return out


def format_table(layers, metrics: Dict[str, float], requests: int) -> str:
    """The per-layer table of a traced run, then the named metrics."""
    total_self = sum(v["self_s"] for v in layers.values()) or 1.0
    lines = [f"  {'layer':<10} {'calls/req':>11} {'self %':>8}"]
    for name in LAYERS + (BENCH, OTHER):
        row = layers[name]
        lines.append(f"  {name:<10} {row['calls'] / requests:>11.1f} "
                     f"{100.0 * row['self_s'] / total_self:>8.1f}")
    for name, value in metrics.items():
        if not name.endswith((".calls_per_req", ".self_pct")):
            lines.append(f"  {name:<32} {value:>14.4f} "
                         f"{PER_LAYER_UNITS[name]}")
    return "\n".join(lines)
