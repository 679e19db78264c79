"""The rebalance controller: online split, merge, and live migration.

PR 4's STR plane is computed once at build time, so a hot region (the
skew workloads, ``hurricane_monitor``) melts one shard while the rest
idle.  This controller closes the loop: it periodically reads each
shard's served-request delta (the same per-stack accounting the
heartbeat/obs plumbing exposes), and when one shard runs hot it splits
that shard's hottest tile at the recent-query-centre median (item-centre
median when no load sample exists) and migrates one half to the coldest
shard — as *simulated background work* that competes with foreground
traffic for the very server CPUs it is trying to relieve.

Migration follows a three-phase epoch-cut protocol (diagrammed in
docs/architecture.md):

1. **copy** — every moving item is inserted into the destination tree
   while the source keeps serving it.  An item is in >= 1 tree at every
   instant; transiently in two, which the router's exactly-once dedup
   merge absorbs.
2. **cut-over** — one atomic map revision: the tile's owner flips, the
   destination's MBR/count grow, the epoch bumps.  Queries scattered
   *after* this instant target the destination; queries straddling it
   detect the bump at gather time and re-scatter
   (:meth:`~repro.shard.router.ScatterGatherRouter` with
   ``epoch_aware=True``).
3. **drain + cleanup** — after ``drain_s`` of simulated time (covering
   in-flight queries that scattered against the old plane), the moved
   items are deleted from the source and its MBR/count recomputed from
   the tree (second epoch bump), so the former hot shard stops
   attracting queries over the region it gave away.  Cleanup runs as a
   detached background process: its deletes queue behind the hot
   shard's foreground traffic and must not freeze the control loop.

Writes racing a migration stay exactly-once: an insert routed to the old
owner after the copy snapshot simply stays there (readable through the
source MBR the router widened); an insert routed after the cut-over
lands on the new owner.  Deletes are broadcast by the epoch-aware router
to every shard whose MBR covers the rect, so a copy can never resurrect
a deleted item.

Determinism contract: the controller draws no randomness — every
decision is a pure function of (map state, served-request counters, sim
time) — so a rebalancing run replays bit-identically at a fixed seed and
the two rebalance chaos scenarios can pin fingerprints.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cluster.config import RebalanceConfig
from ..rtree.geometry import Rect
from ..sim.kernel import Simulator
from .partition import ShardMap, tile_contains

__all__ = ["RebalanceConfig", "RebalanceStats", "RebalanceController"]


class RebalanceStats:
    """Controller accounting, registered as ``rebalance.*`` metrics."""

    COUNTERS = (
        "cycles", "splits", "merges", "tiles_reassigned",
        "migrations_started", "migrations_completed", "items_migrated",
        "epoch_bumps",
    )

    def __init__(self):
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.COUNTERS}


class RebalanceController:
    """Watches per-shard load and drives split/merge/migration.

    ``stacks[k]`` is shard ``k``'s :class:`~repro.runtime.stack.ServerStack`
    and ``shard_map`` is the *live* map every router shares (the sharded
    deployers hand out one authoritative map when rebalancing is on).
    """

    def __init__(self, sim: Simulator, shard_map: ShardMap, stacks: List,
                 config: RebalanceConfig,
                 stats: Optional[RebalanceStats] = None):
        self.sim = sim
        self.shard_map = shard_map
        self.stacks = stacks
        self.config = config
        self.stats = stats or RebalanceStats()
        k = shard_map.n_shards
        self._last_served = [0] * k
        #: EWMA of per-cycle served deltas; the control signal.
        self._ewma = [0.0] * k
        #: True while a migration's copy phase is in flight (between
        #: split and cut-over); gates further splits.
        self._pre_cutover = False
        #: Migration-induced server ops since the last load read; the
        #: controller subtracts its own traffic so a migration cannot
        #: masquerade as foreground heat and trigger a follow-up split.
        self._migration_ops = [0] * k
        #: (start, end) sim-time windows of completed/active migrations
        #: (end None while active) — the racing-writes scenario checks
        #: foreground writes landed inside one.
        self.migration_windows: List[List[Optional[float]]] = []
        self.process = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.process = self.sim.process(self._run(), name="rebalancer")

    def stop(self) -> None:
        """Start no further cycles.  A migration already in flight keeps
        running to completion (the deployers settle on it after the
        foreground drivers finish, so no run ends mid-copy)."""
        self._stopped = True

    @property
    def active_migrations(self) -> bool:
        return any(end is None for _start, end in self.migration_windows)

    def _run(self):
        if self.config.warmup > 0:
            yield self.sim.timeout(self.config.warmup)
        while not self._stopped:
            yield self.sim.timeout(self.config.interval)
            if self._stopped:
                return
            yield from self._cycle()

    # -- observation -------------------------------------------------------

    def _loads(self) -> List[int]:
        """Per-shard served-request deltas since the previous cycle,
        with the controller's own migration traffic subtracted."""
        served = [int(s.server.requests_served) for s in self.stacks]
        loads = [
            max(0, served[k] - self._last_served[k]
                - self._migration_ops[k])
            for k in range(len(self.stacks))
        ]
        self._last_served = served
        self._migration_ops = [0] * len(self.stacks)
        return loads

    def _shard_items(self, shard_id: int) -> List[Tuple[Rect, int]]:
        """The shard tree's current contents (searched over its MBR —
        live on the routed write path, so a conservative cover)."""
        info = self.shard_map[shard_id]
        if info.mbr is None:
            return []
        tree = self.stacks[shard_id].server.tree
        return list(tree.search(info.mbr).matches)

    # -- the control loop --------------------------------------------------

    def _cycle(self):
        cfg = self.config
        stats = self.stats
        stats.cycles += 1
        shard_map = self.shard_map
        k = shard_map.n_shards
        raw = self._loads()
        # EWMA-smoothed loads: one interval's served delta is a handful
        # of requests, and deciding on raw deltas makes the controller
        # chase noise (observed: split storms re-cutting a region before
        # the previous cut-over's load shift even lands).
        self._ewma = [
            0.5 * e + 0.5 * l for e, l in zip(self._ewma, raw)
        ]
        loads = self._ewma
        if k < 2:
            return
        if self._pre_cutover:
            # One *copy* at a time: load only shifts at cut-over, so a
            # second split before the current one's cut-over would chase
            # heat the plane is already about to move.  (Cleanups may
            # still be draining — they run detached and the EWMA damps
            # their residual heat.)
            return
        total = sum(loads)
        if total == 0:
            return
        mean = total / k
        hot = max(range(k), key=lambda s: (loads[s], -s))
        cold = min(range(k), key=lambda s: (loads[s], s))
        if (hot == cold or loads[hot] < cfg.split_ratio * mean
                or len(shard_map.tiles) >= cfg.max_tiles
                or shard_map[hot].count < cfg.min_split_items):
            self._maybe_merge()
            return

        plan = self._plan_split(hot)
        if plan is None:
            self._maybe_merge()
            return
        tile_index, axis, cut, low_mbr, high_mbr = plan
        _low, high = shard_map.split_tile(tile_index, axis, cut,
                                          low_mbr=low_mbr,
                                          high_mbr=high_mbr)
        stats.splits += 1
        stats.epoch_bumps += 1
        yield from self._migrate(high, hot, cold)
        self._maybe_merge()

    def _plan_split(self, hot: int):
        """Pick ``(tile_index, axis, cut, low_mbr, high_mbr)`` for the
        hot shard.

        The goal is to halve *load*, not item count: the planner prefers
        the owned tile drawing the most recent query traffic (the
        server's :data:`recent_queries` ring) and cuts at the
        query-centre median, so each side inherits half the observed
        load.  When no load sample exists — offload schemes serve reads
        client-side, or the shard is write-only — it falls back to the
        densest tile cut at the item-centre median.  The trailing MBRs
        are the halves' exact content covers (computed from the same
        scan), so the split tightens routing instead of inheriting the
        parent's box.  None when no valid cut exists."""
        items = self._shard_items(hot)
        if len(items) < self.config.min_split_items:
            return None
        q_centers = [
            q.center()
            for q in getattr(self.stacks[hot].server, "recent_queries", ())
        ]
        owned = self.shard_map.owned_tiles(hot)
        best = None
        for index, entry in owned:
            contained_items = [
                (rect.center(), rect) for rect, _id in items
                if tile_contains(entry.rect, *rect.center())
            ]
            contained_qs = [
                c for c in q_centers if tile_contains(entry.rect, *c)
            ]
            score = (len(contained_qs), len(contained_items))
            if best is None or score > best[0]:
                best = (score, index, contained_items, contained_qs)
        if best is None:
            return None
        _score, index, tile_items, query_centers = best
        # Load median first (splits traffic in half); item median keeps
        # the old density-balancing behaviour as the fallback.
        candidates = []
        if len(query_centers) >= 2:
            candidates.append(query_centers)
        if len(tile_items) >= self.config.min_split_items:
            candidates.append([center for center, _rect in tile_items])
        for centers in candidates:
            plan = self._median_cut(index, centers)
            if plan is not None:
                _index, axis, cut = plan
                low_mbr, high_mbr = self._half_mbrs(tile_items, axis, cut)
                return index, axis, cut, low_mbr, high_mbr
        return None

    @staticmethod
    def _half_mbrs(tile_items, axis: str, cut: float):
        """The exact content MBRs of a tile's two halves under a cut."""
        low_mbr: Optional[Rect] = None
        high_mbr: Optional[Rect] = None
        coord = 0 if axis == "x" else 1
        for center, rect in tile_items:
            if center[coord] < cut:
                low_mbr = rect if low_mbr is None else low_mbr.union(rect)
            else:
                high_mbr = rect if high_mbr is None else high_mbr.union(rect)
        return low_mbr, high_mbr

    @staticmethod
    def _median_cut(index: int, centers):
        """The median cut of ``centers`` along the wider-extent axis;
        None when every candidate cut is degenerate."""
        xs = sorted(c[0] for c in centers)
        ys = sorted(c[1] for c in centers)
        axes = [("x", xs), ("y", ys)]
        # Wider centre extent first; fall back to the other axis when
        # every centre shares the preferred coordinate.
        axes.sort(key=lambda a: a[1][-1] - a[1][0], reverse=True)
        for axis, coords in axes:
            mid = len(coords) // 2
            cut = (coords[mid - 1] + coords[mid]) / 2.0
            if coords[mid - 1] < cut < coords[mid]:
                return index, axis, cut
            # Degenerate median (ties); any strict gap still works.
            lo, hi = coords[0], coords[-1]
            if lo < hi:
                cut = (lo + hi) / 2.0
                if lo < cut < hi:
                    return index, axis, cut
        return None

    # -- migration (the epoch-cut protocol) --------------------------------

    def _migrate(self, tile_index: int, source: int, dest: int):
        shard_map = self.shard_map
        stats = self.stats
        entry = shard_map.tiles[tile_index]
        moved = [
            (rect, data_id)
            for rect, data_id in self._shard_items(source)
            if tile_contains(entry.rect, *rect.center())
        ]
        if not moved:
            # Nothing to carry: flip the (empty) tile so future writes
            # land on the cold shard.
            shard_map.reassign_tile(tile_index, dest)
            stats.tiles_reassigned += 1
            stats.epoch_bumps += 1
            return

        stats.migrations_started += 1
        window = [self.sim.now, None]
        self.migration_windows.append(window)
        dest_server = self.stacks[dest].server

        # Phase 1 — copy.  The source keeps serving every moved item;
        # the transient two-tree overlap is absorbed by the routers'
        # exactly-once dedup merge.  Each insert is a real CPU-charged,
        # lock-guarded server op: migration *competes* with foreground
        # traffic on the destination.
        moved_mbr: Optional[Rect] = None
        self._pre_cutover = True
        try:
            for rect, data_id in moved:
                yield from dest_server.execute_insert(rect, data_id)
                self._migration_ops[dest] += 1
                moved_mbr = (rect if moved_mbr is None
                             else moved_mbr.union(rect))

            # Phase 2 — cut-over: one atomic map revision (tile owner,
            # dest MBR/count, epoch).  In-flight queries that scattered
            # against the old plane observe the bump at gather time and
            # re-scatter.
            shard_map.reassign_tile(tile_index, dest,
                                    moved_count=len(moved),
                                    moved_mbr=moved_mbr)
            stats.tiles_reassigned += 1
            stats.epoch_bumps += 1
        finally:
            self._pre_cutover = False

        # Phase 3 — drain, then delete from the source — detached as its
        # own process.  The source is by construction the *hot* shard, so
        # its cleanup deletes queue behind saturated foreground traffic;
        # serializing the control loop on them would freeze further
        # splits for the whole cleanup (observed: tens of milliseconds
        # at one core).  The migration window stays open until the
        # cleanup finishes, so the deployers' settle loop still
        # guarantees no run ends with an item on two shards.  Cleanups
        # from successive migrations cannot collide: each deletes only
        # items whose centres lie in its own (disjoint) migrated tile.
        self.sim.process(
            self._cleanup(source, entry.rect, moved, window),
            name=f"rebalance-cleanup-{source}",
        )

    def _cleanup(self, source: int, tile_rect: Rect, moved, window):
        """Drain, delete the moved items from the source tree, sweep any
        write that raced the cut-over to its current owner, and rebuild
        the source's routing summary exactly.

        The drain keeps the source exact for queries that scattered
        pre-cut-over; the epoch-aware re-scatter is the net under any
        straggler.  The final rebuild is safe against racing client
        inserts: the tree mutation is applied at the head of
        ``execute_insert`` (before any CPU is charged), so an insert
        acked before the scan is *in* the scan, and one applied after
        it re-grows the shared live map via the client's
        ``note_insert`` at ack time.  Without the rebuild the former
        hot shard's stale covers keep attracting every query over the
        region it migrated away — scatter fan-out never recovers."""
        shard_map = self.shard_map
        stats = self.stats
        source_server = self.stacks[source].server
        if self.config.drain_s > 0:
            yield self.sim.timeout(self.config.drain_s)
        for rect, data_id in moved:
            yield from source_server.execute_delete(rect, data_id)
            self._migration_ops[source] += 1
            stats.items_migrated += 1
        # Sweep stragglers: an insert that scattered against the old
        # plane landed on the source *inside* the migrated tile after
        # the copy snapshot.  Carry each to the region's current owner
        # (copy first, delete after — the item is on >= 1 shard at
        # every instant), so no permanent stray keeps the source in
        # the region's scatter set.
        moved_ids = {data_id for _rect, data_id in moved}
        for rect, data_id in self._shard_items(source):
            if data_id in moved_ids:
                continue
            if not tile_contains(tile_rect, *rect.center()):
                continue
            owner = shard_map.owner_of(rect)
            if owner == source:
                continue
            # Re-check the item still exists right before copying (no
            # yield in between, and the insert mutates the destination
            # tree before its first yield): a foreground delete that
            # completed since the snapshot scan must not be resurrected.
            if not any(d == data_id
                       for _r, d in self._shard_items(source)):
                continue
            yield from self.stacks[owner].server.execute_insert(
                rect, data_id)
            self._migration_ops[owner] += 1
            shard_map.note_insert(owner, rect)
            yield from source_server.execute_delete(rect, data_id)
            self._migration_ops[source] += 1
            stats.items_migrated += 1
        shard_map.rebuild_shard_summary(source, self._shard_items(source))
        stats.epoch_bumps += 1
        stats.migrations_completed += 1
        window[1] = self.sim.now

    # -- merging -----------------------------------------------------------

    def _maybe_merge(self) -> bool:
        """Merge one pair of adjacent same-owner tiles, if any (keeps the
        routing table from growing monotonically as load moves around)."""
        tiles = self.shard_map.tiles
        for i in range(len(tiles)):
            for j in range(i + 1, len(tiles)):
                if tiles[i].owner != tiles[j].owner:
                    continue
                try:
                    self.shard_map.merge_tiles(i, j)
                except ValueError:
                    continue
                self.stats.merges += 1
                self.stats.epoch_bumps += 1
                return True
        return False
