"""RDMA offloading: client-side R-tree traversal over one-sided reads.

The paper's second design (§III-B) plus the multi-issue enhancement
(§IV-C):

* the client fetches the root chunk with an RDMA Read, intersects the
  query against the node's MBRs, and recursively fetches every
  intersecting child — the server CPU is never involved;
* **single-issue** (the FaRM-style baseline) fetches one node per RTT;
* **multi-issue** (Catfish) posts RDMA Reads for *all* intersecting
  children at once, pipelining the RTTs on the NICs and the wire, and
  starts checking whichever node returns first;
* every fetched node is validated with the version mechanism; a torn
  snapshot is re-read.  A node whose level does not match its parent's
  expectation reveals a stale root (the root split since the client cached
  it), which triggers a meta refresh and a search restart.

Writes are *never* offloaded: insert/delete always travel the fast
messaging path so the server's lock manager serializes them (§III-B).

An optional client-side :class:`~repro.client.node_cache.NodeCache`
(RDMAbox-style) serves repeated upper-level fetches locally: internal
views are cached under the tree's mutation high-water mark, concurrent
fetches of the same chunk coalesce into one in-flight read
(single-flight), and distinct same-round multi-issue reads are
doorbell-batched through one :meth:`QpEndpoint.post_read_batch`.  Leaf
chunks are always re-read and re-validated — the FaRM version check on
fresh leaf reads is the safety net under concurrent writes.  With no
cache attached (the default) every code path is byte-identical to the
pre-cache engine.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..obs.trace import NULL_SPAN, NULL_TRACER
from ..rtree import batch as _batch
from ..rtree.geometry import Rect
from ..rtree.serialize import NodeView, view_from_bytes
from ..rtree.versioning import validate_snapshot
from ..server.base import OffloadDescriptor, TreeMeta
from ..server.costs import CostModel
from ..sim.kernel import Simulator
from ..sim.resources import Store
from ..transport.rdma import QpEndpoint
from .base import OP_SEARCH, ClientStats, Request
from .node_cache import NodeCache

#: Bytes of a meta read (root pointer + height + mutation mark).
META_READ_SIZE = 16


class OffloadError(Exception):
    """A search could not complete after the configured restarts."""


class OffloadEngine:
    """One-sided tree traversal with retry/restart handling."""

    COUNTERS = ("meta_reads", "stale_root_detections", "chunks_fetched")

    def __init__(
        self,
        sim: Simulator,
        qp: QpEndpoint,
        descriptor: OffloadDescriptor,
        costs: CostModel,
        stats: ClientStats,
        multi_issue: bool = True,
        max_read_retries: int = 8,
        max_search_restarts: int = 8,
        retry_backoff: float = 1e-6,
        tracer=None,
        cache: Optional[NodeCache] = None,
    ):
        self.sim = sim
        self.qp = qp
        self.desc = descriptor
        self.costs = costs
        self.stats = stats
        self.multi_issue = multi_issue
        self.max_read_retries = max_read_retries
        self.max_search_restarts = max_search_restarts
        self.retry_backoff = retry_backoff
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._cached_root: Optional[int] = None
        self._cached_height: Optional[int] = None
        self._span = NULL_SPAN
        self.meta_reads = 0
        self.stale_root_detections = 0
        self.chunks_fetched = 0
        self.cache: Optional[NodeCache] = None
        #: Single-flight table: chunk id -> follower events sharing the
        #: leader's in-flight read.  Only allocated with a cache attached
        #: so the cache-less engine stays byte-identical to the seed.
        self._inflight_reads: Optional[Dict[int, List]] = None
        if cache is not None:
            self.attach_cache(cache)

    def attach_cache(self, cache: NodeCache) -> None:
        """Enable the client-side node cache (and read coalescing)."""
        self.cache = cache
        self._inflight_reads = {}

    # -- low-level reads -----------------------------------------------------

    def _chunk_address(self, chunk_id: int) -> int:
        return self.desc.tree_base + chunk_id * self.desc.chunk_bytes

    def _read_meta(self) -> Generator:
        """Fetch the root pointer from the server's meta region."""
        self._span.annotate("meta_read")
        meta: TreeMeta = yield self.qp.post_read(
            self.desc.meta_rkey, self.desc.meta_base, META_READ_SIZE
        )
        self.meta_reads += 1
        return meta

    def _apply_meta(self, meta: TreeMeta) -> bool:
        """Update the root cache; True if the cached root was stale."""
        stale = (
            meta.root_chunk != self._cached_root
            or meta.height != self._cached_height
        )
        if stale and self._cached_root is not None:
            self.stale_root_detections += 1
        self._cached_root = meta.root_chunk
        self._cached_height = meta.height
        return stale

    def _note_meta_hwm(self, meta: TreeMeta) -> bool:
        """Feed the meta read's mutation mark to the cache; True if it
        advanced (cached views fetched under an older mark were dropped).
        """
        if self.cache is None or meta.mut_seq < 0:
            return False
        return self.cache.note_server_hwm(meta.mut_seq)

    def _post_chunk_read(self, chunk_id: int):
        return self.qp.post_read(
            self.desc.tree_rkey,
            self._chunk_address(chunk_id),
            self.desc.chunk_bytes,
        )

    def _fetch_chunk(self, chunk_id: int) -> Generator:
        """One raw chunk fetch; coalesces with an in-flight read.

        With a cache attached, concurrent fetches of the same chunk
        (multi-issue re-reads, concurrent searches sharing this engine)
        share one RDMA Read via the single-flight table: the leader
        posts, followers wait on it and receive the same raw data.
        """
        inflight = self._inflight_reads
        if inflight is None:
            data = yield self._post_chunk_read(chunk_id)
            self.chunks_fetched += 1
            return data
        waiters = inflight.get(chunk_id)
        if waiters is not None:
            event = self.sim.event()
            waiters.append(event)
            if self.cache is not None:
                self.cache.coalesced_reads += 1
            data = yield event
            return data
        inflight[chunk_id] = []
        try:
            data = yield self._post_chunk_read(chunk_id)
            self.chunks_fetched += 1
        except BaseException as exc:
            for event in inflight.pop(chunk_id):
                event.fail(exc)
            raise
        for event in inflight.pop(chunk_id):
            event.succeed(data)
        return data

    def _await_batched(self, chunk_id: int, read_event) -> Generator:
        """Consume a doorbell-batched read, feeding any followers."""
        inflight = self._inflight_reads
        try:
            data = yield read_event
        except BaseException as exc:
            if inflight is not None:
                for event in inflight.pop(chunk_id, ()):
                    event.fail(exc)
            raise
        if inflight is not None:
            for event in inflight.pop(chunk_id, ()):
                event.succeed(data)
        return data

    def _read_valid(
        self, chunk_id: int, expected_level: int, first_read=None
    ) -> Generator:
        """Fetch one chunk, re-reading torn snapshots; None on failure.

        The server serves either :class:`NodeView` snapshots (fast path)
        or raw chunk bytes (full-fidelity byte mode); the byte path runs
        the real decode + per-cache-line version comparison.

        ``first_read`` optionally supplies an already-posted (doorbell-
        batched) read event to consume as attempt 0; retries always post
        their own reads.
        """
        span = self._span
        cache = self.cache
        for attempt in range(self.max_read_retries):
            span.annotate("issue", chunk=chunk_id, level=expected_level,
                          attempt=attempt)
            # Stamp captured before the fetch: if the high-water mark
            # moves while the read is in flight, the store below is
            # skipped rather than mis-stamping pre-mutation content.
            stamp = cache.server_hwm if cache is not None else None
            if first_read is not None:
                data = yield from self._await_batched(chunk_id, first_read)
                first_read = None
            else:
                data = yield from self._fetch_chunk(chunk_id)
            if isinstance(data, (bytes, bytearray)):
                view = view_from_bytes(data, self.desc.max_entries)
                ok = view is not None
            else:
                view = data
                ok = validate_snapshot(view)
            if ok and view.level == expected_level:
                span.annotate("validate", chunk=chunk_id, ok=True)
                if cache is not None:
                    cache.store(view, stamp=stamp)
                return view
            if ok:
                # Valid image at the wrong level: a recycled chunk or a
                # stale root, not a torn snapshot — keep the diagnosis
                # streams separate.
                self.stats.level_mismatch_retries += 1
            else:
                self.stats.torn_retries += 1
            span.annotate("retry", chunk=chunk_id, attempt=attempt,
                          torn=not ok)
            if attempt < self.max_read_retries - 1:
                # No backoff after the final attempt: the caller is about
                # to restart (or fail) anyway, and the largest backoff of
                # the schedule would be pure added latency.
                yield self.sim.timeout(self.retry_backoff * (attempt + 1))
        return None

    # -- the restart loop ----------------------------------------------------
    #
    # search, search_batch and nearest run one loop: an attempt per
    # restart, an attempt returning None meaning "stale root or persistent
    # torn reads: retraverse".  The loop is written inline in each (no
    # extra generator frame per request); these helpers hold its span and
    # results bookkeeping.

    def _complete(self, span, restart: int, results: int, **attrs) -> None:
        self._span = NULL_SPAN
        self.stats.results_received += results
        span.end(restarts=restart, **attrs, results=results)

    def _restarted(self, span, restart: int) -> None:
        self.stats.search_restarts += 1
        span.annotate("restart", attempt=restart + 1)

    def _abort(self, span, error: str) -> None:
        # An escaping exception (e.g. an injected fault) must still end
        # the span — a leaked span pins its trace ring slot.
        self._span = NULL_SPAN
        span.end(error=error)

    def _exhausted(self, span, name: str) -> OffloadError:
        self._abort(span, "restarts-exhausted")
        return OffloadError(
            f"{name} did not complete after {self.max_search_restarts} "
            f"restarts"
        )

    # -- search ------------------------------------------------------------------

    def search(self, query: Rect) -> Generator:
        """Traverse the tree one-sidedly; returns [(rect, data_id), ...].

        Every search validates the cached root pointer against the meta
        region: a root split would otherwise leave the old root looking
        perfectly valid (same chunk, same level) while missing the new
        sibling's subtree.  Multi-issue overlaps the meta read with the
        optimistic root read, so validation costs no extra round trip;
        single-issue (the baseline) pays it sequentially — one more of the
        "multiple RTTs" the paper attributes to offloading.
        """
        self.stats.offloaded_requests += 1
        span = self._span = self.tracer.span("offload", "search")
        try:
            for restart in range(self.max_search_restarts):
                if self.multi_issue:
                    matches = yield from self._search_multi_issue(query)
                else:
                    matches = yield from self._search_single_issue(query)
                if matches is not None:
                    self._complete(span, restart, len(matches))
                    return matches
                self._restarted(span, restart)
        except BaseException as exc:
            self._abort(span, type(exc).__name__)
            raise
        raise self._exhausted(span, "search")

    def count(self, query: Rect) -> Generator:
        """Aggregate-only offloaded search: traverse, count, ship nothing
        beyond the chunks themselves."""
        matches = yield from self.search(query)
        return len(matches)

    # -- batched search ------------------------------------------------------

    def search_batch(self, queries: List[Rect]) -> Generator:
        """One shared one-sided traversal for a group of range queries.

        Returns one match list per query, set-identical to running
        :meth:`search` once per query (ordering follows the shared
        frontier: level wave by level wave, nodes in discovery order).
        The amortization is the point: each tree node of interest is
        fetched **once per batch** — one RDMA Read (or one cache hit)
        serves every query that reaches the node — and each wave's
        misses go out pipelined (doorbell-batched when the cache's
        single-flight table is attached).  One meta read validates the
        whole batch; any stale root / torn-read failure restarts the
        whole batch, mirroring :meth:`search`.
        """
        n = len(queries)
        self.stats.offloaded_requests += n
        if n == 0:
            return []
        span = self._span = self.tracer.span("offload", "search_batch")
        try:
            for restart in range(self.max_search_restarts):
                results = yield from self._batch_attempt(queries)
                if results is not None:
                    self._complete(span, restart,
                                   sum(len(r) for r in results), queries=n)
                    return results
                self._restarted(span, restart)
        except BaseException as exc:
            self._abort(span, type(exc).__name__)
            raise
        raise self._exhausted(span, "search_batch")

    def _batch_attempt(self, queries: List[Rect]) -> Generator:
        """One batched traversal attempt; None => restart the batch.

        The meta read is sequential (as in the single-issue path), so
        the mutation high-water mark is synchronized before any cache
        hit is served — hits are exact as of batch start, no mid-flight
        stale-abort bookkeeping needed.
        """
        meta = yield from self._read_meta()
        self._apply_meta(meta)
        self._note_meta_hwm(meta)
        qb = _batch.QueryBatch(queries)
        results: List[List[Tuple[Rect, int]]] = [[] for _ in queries]
        frontier = [(self._cached_root, self._cached_height - 1, qb.all_sel)]
        while frontier:
            views = yield from self._fetch_round(
                [(chunk_id, level) for chunk_id, level, _q in frontier]
            )
            if views is None:
                return None
            next_frontier = []
            for (chunk_id, level, qsel), view in zip(frontier, views):
                # One node check serves the whole interest set — the
                # (Q x E) matrix below is a single kernel evaluation.
                yield self.sim.timeout(self._check_cost())
                entries = view.entries
                count = len(entries)
                source = _batch.view_scan_source(view)
                if view.is_leaf:
                    qlist = _batch.QueryBatch.sel_list(qsel)
                    gete = entries.__getitem__
                    for row, ent_idxs in _batch.batch_leaf_hits(
                        source, count, qb, qsel
                    ):
                        results[qlist[row]].extend(map(gete, ent_idxs))
                else:
                    for e_idx, sub in _batch.batch_child_sets(
                        source, count, qb, qsel
                    ):
                        next_frontier.append(
                            (entries[e_idx][1], level - 1, sub)
                        )
            frontier = next_frontier
        return results

    def _fetch_round(self, pairs: List[Tuple[int, int]]) -> Generator:
        """Fetch one frontier wave; list of views, or None on any failure.

        Multi-issue plans the wave with :meth:`_issue_round`;
        single-issue fetches it sequentially.  Chunk ids within a wave
        are distinct by construction: every tree node hangs off exactly
        one parent entry, and merged interest sets mean each parent was
        expanded once.
        """
        views: List[Optional[NodeView]] = [None] * len(pairs)
        if not self.multi_issue:
            for slot, (chunk_id, level) in enumerate(pairs):
                view = self._cached(chunk_id, level)
                if view is None:
                    view = yield from self._read_valid(chunk_id, level)
                if view is None:
                    return None
                views[slot] = view
            return views
        arrived: Store = Store(self.sim)
        hits, reads = self._issue_round(pairs, arrived)
        for slot, view in hits:
            views[slot] = view
        failed = False
        for _ in range(reads):
            slot, view = yield arrived.get()
            if view is None:
                failed = True
            else:
                views[slot] = view
        return None if failed else views

    # -- node fetch planning -------------------------------------------------

    def _cached(self, chunk_id: int, level: int) -> Optional[NodeView]:
        """A cache hit for an internal node, traced; None on a miss.

        Leaves are never cached; without a cache every fetch misses.
        """
        if self.cache is None or level == 0:
            return None
        view = self.cache.lookup(chunk_id)
        if view is not None:
            self._span.annotate("cache_hit", chunk=chunk_id, level=level)
        return view

    def _fetch_into(self, arrived: Store, slot, chunk_id: int, level: int,
                    first_read=None) -> Generator:
        """Process body: one validated read, delivered as (slot, view)."""
        view = yield from self._read_valid(chunk_id, level, first_read)
        arrived.put((slot, view))

    def _issue_round(self, pairs: List[Tuple[int, int]],
                     arrived: Store) -> Tuple[List, int]:
        """Issue one multi-issue round of ``(chunk_id, level)`` pairs.

        Cache hits are served locally; a chunk already in flight joins
        the leader's read (single-flight, see :meth:`_fetch_chunk`); the
        remaining misses are posted concurrently — through one doorbell
        when ≥2 and the single-flight table exists (cache attached),
        else as pipelined individual reads.  Returns the hits as
        ``(slot, view)`` pairs, ``slot`` being the pair's index, and the
        number of reads whose ``(slot, view)`` will arrive on
        ``arrived`` (``view`` None on a failed read).
        """
        inflight_reads = self._inflight_reads
        spawn = self.sim.process
        hits: List[Tuple[int, NodeView]] = []
        to_post: List[Tuple[int, int, int]] = []
        joined = 0
        for slot, (chunk_id, level) in enumerate(pairs):
            view = self._cached(chunk_id, level)
            if view is not None:
                hits.append((slot, view))
            elif inflight_reads is not None and chunk_id in inflight_reads:
                joined += 1
                spawn(self._fetch_into(arrived, slot, chunk_id, level),
                      name="offload-read")
            else:
                to_post.append((slot, chunk_id, level))
        first_reads: Sequence = (None,) * len(to_post)
        if len(to_post) >= 2 and inflight_reads is not None:
            first_reads = self.qp.post_read_batch([
                (self.desc.tree_rkey, self._chunk_address(chunk_id),
                 self.desc.chunk_bytes)
                for _slot, chunk_id, _level in to_post
            ])
            for _slot, chunk_id, _level in to_post:
                inflight_reads[chunk_id] = []
            self.chunks_fetched += len(to_post)
        for (slot, chunk_id, level), first_read in zip(to_post, first_reads):
            spawn(self._fetch_into(arrived, slot, chunk_id, level, first_read),
                  name="offload-read")
        return hits, joined + len(to_post)

    # -- kNN ---------------------------------------------------------------------

    def nearest(self, x: float, y: float, k: int = 1) -> Generator:
        """Offloaded kNN: best-first branch-and-bound over one-sided reads.

        Inherently sequential (the next chunk to fetch depends on the
        heap top), so each expansion costs a round trip — kNN is the
        worst case for offloading and the best case for fast messaging,
        which the adaptive client will discover via its latencies.
        Traced and counted with full :meth:`search` parity.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.stats.offloaded_requests += 1
        span = self._span = self.tracer.span("offload", "nearest")
        try:
            for restart in range(self.max_search_restarts):
                matches = yield from self._nearest_attempt(x, y, k)
                if matches is not None:
                    self._complete(span, restart, len(matches))
                    return matches
                self._restarted(span, restart)
        except BaseException as exc:
            self._abort(span, type(exc).__name__)
            raise
        raise self._exhausted(span, "nearest")

    def _nearest_attempt(self, x: float, y: float, k: int) -> Generator:
        """One best-first traversal; None => restart."""
        meta = yield from self._read_meta()
        self._apply_meta(meta)
        self._note_meta_hwm(meta)
        counter = itertools.count()
        heap = [(0.0, next(counter), "chunk",
                 (self._cached_root, self._cached_height - 1))]
        matches: List[Tuple[Rect, int]] = []
        while heap and len(matches) < k:
            _dist, _seq, kind, payload = heapq.heappop(heap)
            if kind == "entry":
                matches.append(payload)
                continue
            chunk_id, level = payload
            view = self._cached(chunk_id, level)
            if view is None:
                view = yield from self._read_valid(chunk_id, level)
            if view is None:
                return None
            yield self.sim.timeout(self._check_cost())
            dists = _batch.view_min_dist2(view, x, y)
            for (rect, ref), dist in zip(view.entries, dists):
                if view.is_leaf:
                    heapq.heappush(heap, (dist, next(counter),
                                          "entry", (rect, ref)))
                else:
                    heapq.heappush(heap, (dist, next(counter),
                                          "chunk", (ref, level - 1)))
        return matches

    def _check_cost(self) -> float:
        return self.costs.client_node_check

    def _search_single_issue(self, query: Rect) -> Generator:
        """Baseline traversal: one outstanding RDMA Read at a time."""
        meta = yield from self._read_meta()
        self._apply_meta(meta)
        self._note_meta_hwm(meta)
        matches: List[Tuple[Rect, int]] = []
        stack = [(self._cached_root, self._cached_height - 1)]
        while stack:
            chunk_id, level = stack.pop()
            # The sequential meta read above already synchronized the
            # high-water mark, so a cache hit is exact as of search start.
            view = self._cached(chunk_id, level)
            if view is None:
                view = yield from self._read_valid(chunk_id, level)
            if view is None:
                return None
            yield self.sim.timeout(self._check_cost())
            if view.is_leaf:
                matches.extend(view.intersecting_entries(query))
            else:
                for ref in view.intersecting_refs(query):
                    stack.append((ref, level - 1))
        return matches

    def _search_multi_issue(self, query: Rect) -> Generator:
        """Catfish traversal: fetch all intersecting children at once.

        The meta read flies together with the optimistic root read; if it
        reveals a root change the attempt is abandoned and restarted from
        the fresh root.  On the cold-start path (no cached root yet) the
        bootstrap meta read *is* the validation — issuing a second,
        concurrent meta fetch would pay an extra RTT for a value fetched
        one RTT ago, so it is skipped.

        With a cache attached the same meta read also validates every
        cache hit: if it reveals the mutation mark advanced after hits
        were already served (they described a pre-mutation tree), the
        attempt is abandoned exactly like a stale root.  Each expansion
        round is planned by :meth:`_issue_round`.
        """
        cold_start = self._cached_root is None
        if cold_start:
            meta = yield from self._read_meta()
            self._apply_meta(meta)
            self._note_meta_hwm(meta)

        matches: List[Tuple[Rect, int]] = []
        arrived: Store = Store(self.sim)
        inflight = 0
        failed = False
        cache_hits_used = 0

        def fetch_meta() -> Generator:
            meta = yield from self._read_meta()
            arrived.put((None, meta))  # slot None marks the meta read

        def issue_all(pairs: List[Tuple[int, int]]) -> None:
            nonlocal inflight, cache_hits_used
            hits, reads = self._issue_round(pairs, arrived)
            for hit in hits:
                # Hits queue behind reads that already arrived.
                arrived.put(hit)
            cache_hits_used += len(hits)
            inflight += len(hits) + reads

        if not cold_start:
            inflight += 1
            self.sim.process(fetch_meta(), name="multi-issue-meta")
        issue_all([(self._cached_root, self._cached_height - 1)])
        while inflight:
            slot, payload = yield arrived.get()
            inflight -= 1
            if slot is None:
                stale_root = self._apply_meta(payload)
                hwm_advanced = self._note_meta_hwm(payload)
                if stale_root:
                    failed = True  # traversal began at a stale root
                elif hwm_advanced and cache_hits_used:
                    # Hits already served this attempt were stamped under
                    # an older mark than the tree this search observes.
                    failed = True
                continue
            view = payload
            if view is None:
                failed = True
                continue  # drain remaining in-flight reads
            if failed:
                continue
            yield self.sim.timeout(self._check_cost())
            if view.is_leaf:
                matches.extend(view.intersecting_entries(query))
            else:
                issue_all([(ref, view.level - 1)
                           for ref in view.intersecting_refs(query)])
        return None if failed else matches


def dispatch_read(engine: OffloadEngine, request: Request, fm) -> Generator:
    """Route a request to the right one-sided operation (or to fast
    messaging for writes) — the offload path of every R-tree session."""
    from .base import OP_COUNT, OP_NEAREST

    if request.op == OP_SEARCH:
        result = yield from engine.search(request.rect)
    elif request.op == OP_COUNT:
        result = yield from engine.count(request.rect)
    elif request.op == OP_NEAREST:
        cx, cy = request.rect.center()
        result = yield from engine.nearest(cx, cy, request.k)
    else:
        result = yield from fm.execute(request)
    return result
