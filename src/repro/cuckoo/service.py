"""Server + offload client for the cuckoo hash table over the framework.

The table is one registered region of fixed-size bucket chunks; the
offloading GET computes both candidate buckets from the key and posts two
concurrent RDMA Reads — a single round trip, no meta region needed (no
resize, so the geometry never changes).  Writes go through the ring buffer
and the server's kick logic, wrapped in write windows so racing one-sided
readers observe torn buckets and retry (the window covers every bucket the
displacement walk touched, which is what makes heavy-kick inserts visibly
hostile to readers — an effect this module's benchmark ablates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from ..client.base import ClientStats
from ..client.offload_client import OffloadError
from ..hw.host import Host
from ..msg.codec import (
    KvDeleteRequest,
    KvGetRequest,
    KvPutRequest,
    ResponseSegment,
    segment_results,
)
from ..rtree.locks import TreeLockManager
from ..rtree.versioning import WriteTracker
from ..runtime.session import PolicySession
from ..server.costs import DEFAULT_COSTS, CostModel
from ..sim.kernel import Simulator
from ..sim.resources import Store
from ..transport.rdma import QpEndpoint
from .table import Bucket, CuckooFullError, CuckooHashTable

#: A bucket chunk: 4 slots x 16 B + versions, padded to two cache lines.
BUCKET_BYTES = 128


@dataclass(frozen=True)
class BucketSnapshot:
    index: int
    entries: Tuple[Tuple[int, int], ...]
    version: int
    torn: bool

    def find(self, key: int) -> Optional[int]:
        for k, v in self.entries:
            if k == key:
                return v
        return None


def snapshot_bucket(bucket: Bucket) -> BucketSnapshot:
    return BucketSnapshot(
        index=bucket.index,
        entries=tuple(bucket.entries),
        version=bucket.version,
        torn=bucket.active_writers > 0,
    )


@dataclass(frozen=True)
class CuckooDescriptor:
    """Client bootstrap: region + table geometry (hashing is code)."""

    rkey: int
    base: int
    bucket_bytes: int
    n_buckets: int
    slots_per_bucket: int
    seed: int


class _CuckooTarget:
    def __init__(self, service: "CuckooService"):
        self._service = service

    def rdma_read(self, address, length, now):
        offset = address - self._service.region.base
        index = offset // BUCKET_BYTES
        self._service.one_sided_reads += 1
        view = snapshot_bucket(self._service.table.buckets[index])
        if view.torn:
            self._service.torn_reads += 1
        return view

    def rdma_write(self, address, length, payload, now):
        raise PermissionError("clients never write the cuckoo region")


class CuckooService:
    """Server side: executes gets/puts/deletes with CPU costs + windows."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        items: Sequence[Tuple[int, int]] = (),
        n_buckets: int = 4096,
        slots_per_bucket: int = 4,
        costs: CostModel = DEFAULT_COSTS,
        seed: int = 0,
    ):
        self.sim = sim
        self.host = host
        self.costs = costs
        self.service_inflation = 1.0
        self.table = CuckooHashTable(
            n_buckets, slots_per_bucket=slots_per_bucket, seed=seed
        )
        self.region = host.memory.register(
            n_buckets * BUCKET_BYTES, name="cuckoo"
        )
        host.memory.bind(self.region.rkey, _CuckooTarget(self))
        self.locks = TreeLockManager(sim)
        self.write_tracker = WriteTracker(sim)
        self.one_sided_reads = 0
        self.torn_reads = 0
        self.gets_served = 0
        self.puts_served = 0
        self.deletes_served = 0
        self.failed_puts = 0
        for key, value in items:
            self.table.put(key, value)

    def descriptor(self) -> CuckooDescriptor:
        return CuckooDescriptor(
            rkey=self.region.rkey,
            base=self.region.base,
            bucket_bytes=BUCKET_BYTES,
            n_buckets=self.table.n_buckets,
            slots_per_bucket=self.table.slots_per_bucket,
            seed=self.table.seed,
        )

    # -- execution -----------------------------------------------------------

    def _read_cost(self, result) -> float:
        return (
            self.costs.request_parse
            + result.buckets_probed * self.costs.bucket_probe
        ) * self.service_inflation

    def _write_cost(self, result) -> float:
        return (
            self.costs.request_parse
            + result.buckets_probed * self.costs.bucket_probe
            + self.costs.insert_write
            + result.kicks * self.costs.bucket_probe * 2
        ) * self.service_inflation

    def execute_get(self, key: int) -> Generator:
        result = self.table.get(key)

        def body():
            yield from self.host.cpu.execute(self._read_cost(result))

        yield from self.locks.read_guard(result.visited_chunks, body())
        self.gets_served += 1
        return result.items

    def _run_write(self, result) -> Generator:
        cost = self._write_cost(result)
        chunk_ids = [b.index for b in result.mutated_nodes]

        def body():
            window = min(cost, self.costs.write_window(
                len(result.mutated_nodes)))
            yield from self.host.cpu.execute(cost - window)
            yield from self.write_tracker.write_window(
                result.mutated_nodes, self.host.cpu.execute(window)
            )

        yield from self.locks.write_guard(chunk_ids, body())

    def execute_put(self, key: int, value: int) -> Generator:
        try:
            result = self.table.put(key, value)
        except CuckooFullError:
            self.failed_puts += 1
            return False
        yield from self._run_write(result)
        self.puts_served += 1
        return True

    def execute_delete(self, key: int) -> Generator:
        result = self.table.delete(key)
        yield from self._run_write(result)
        self.deletes_served += 1
        return result.ok

    # -- transport dispatch ------------------------------------------------------

    def handle_request(self, request) -> Generator:
        if isinstance(request, KvGetRequest):
            items = yield from self.execute_get(request.key)
            return segment_results(request.req_id, items)
        if isinstance(request, KvPutRequest):
            ok = yield from self.execute_put(request.key, request.value)
            return [ResponseSegment(request.req_id, (), last=True, ok=ok)]
        if isinstance(request, KvDeleteRequest):
            ok = yield from self.execute_delete(request.key)
            return [ResponseSegment(request.req_id, (), last=True, ok=ok)]
        raise TypeError(f"cuckoo service got unexpected {request!r}")

    def cpu_utilization(self) -> float:
        return self.host.cpu.utilization()


class CuckooOffloadEngine:
    """Client-side GET: both candidate buckets in one concurrent wave."""

    COUNTERS = ("buckets_fetched",)

    def __init__(
        self,
        sim: Simulator,
        qp: QpEndpoint,
        descriptor: CuckooDescriptor,
        costs: CostModel,
        stats: ClientStats,
        max_read_retries: int = 8,
        retry_backoff: float = 1e-6,
    ):
        self.sim = sim
        self.qp = qp
        self.desc = descriptor
        self.costs = costs
        self.stats = stats
        self.max_read_retries = max_read_retries
        self.retry_backoff = retry_backoff
        #: Client-side mirror of the hash functions (same code, same seed).
        self._shadow = CuckooHashTable(
            descriptor.n_buckets,
            slots_per_bucket=descriptor.slots_per_bucket,
            seed=descriptor.seed,
        )
        self.buckets_fetched = 0

    def _addr(self, index: int) -> int:
        return self.desc.base + index * self.desc.bucket_bytes

    def _read_bucket(self, index: int) -> Generator:
        for attempt in range(self.max_read_retries):
            view: BucketSnapshot = yield self.qp.post_read(
                self.desc.rkey, self._addr(index), self.desc.bucket_bytes
            )
            self.buckets_fetched += 1
            if not view.torn:
                return view
            self.stats.torn_retries += 1
            if attempt < self.max_read_retries - 1:
                # No backoff after the final attempt: the caller restarts
                # (or fails) at once.
                yield self.sim.timeout(self.retry_backoff * (attempt + 1))
        return None

    def get(self, key: int) -> Generator:
        """One-RTT lookup: both buckets fetched concurrently."""
        self.stats.offloaded_requests += 1
        h1, h2 = self._shadow.bucket_indices(key)
        indices = list(dict.fromkeys((h1, h2)))
        arrived: Store = Store(self.sim)

        def fetch(index):
            view = yield from self._read_bucket(index)
            arrived.put(view)

        for index in indices:
            self.sim.process(fetch(index), name="cuckoo-read")
        views = []
        for _ in indices:
            view = yield arrived.get()
            views.append(view)
        if any(v is None for v in views):
            raise OffloadError(f"bucket reads for key {key} kept tearing")
        yield self.sim.timeout(self.costs.client_node_check)
        items: List[Tuple[int, int]] = []
        for view in views:
            value = view.find(key)
            if value is not None:
                items.append((key, value))
                break
        self.stats.results_received += len(items)
        return items


class CuckooPolicySession(PolicySession):
    """A path policy over cuckoo operations: GETs offload, writes never."""

    def _is_offloadable(self, request) -> bool:
        return request.op == "get"

    def _offload(self, request) -> Generator:
        result = yield from self.engine.get(request.key)
        return result
