"""Shared-resource primitives built on the DES kernel.

Three primitives cover everything the Catfish model needs:

* :class:`Resource` — ``capacity`` identical servers with a FIFO wait queue
  (CPU cores, NIC DMA engines).
* :class:`Store` — an unbounded (or bounded) FIFO of items with blocking
  ``get`` (message queues, completion queues, event channels).
* :class:`Container` — a continuous quantity with blocking ``get``/``put``
  (ring-buffer free space).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .kernel import Event, Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; succeeds when granted.

    Usable as a context manager so releases cannot be forgotten::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self.released = False
        resource._on_request(self)

    def release(self) -> None:
        """Return the claimed slot (idempotent)."""
        if not self.released:
            self.released = True
            self.resource._on_release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """``capacity`` identical slots with FIFO granting."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: int = 0
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently claimed."""
        return self._users

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event succeeds when granted."""
        return Request(self)

    def _on_request(self, request: Request) -> None:
        if self._users < self.capacity:
            self._users += 1
            # Uncontended grant: trigger *and* mark processed in one step.
            # The requester's ``yield`` then resumes through the kernel's
            # already-processed path instead of paying a queue round-trip
            # for an event with a single, known callback.  Contended
            # grants (below, and in ``_on_release``) still go through the
            # queue, so FIFO fairness and wake-up ordering are untouched.
            request._ok = True
            request.callbacks = None
        else:
            self._waiting.append(request)

    def _on_release(self, request: Request) -> None:
        if request._ok is None:  # not triggered yet
            # Cancelled before being granted: drop from the wait queue.
            try:
                self._waiting.remove(request)
            except ValueError:
                pass
            return
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed()
        else:
            self._users -= 1


class StoreGet(Event):
    """Pending ``get`` on a :class:`Store`; value is the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.sim)
        store._on_get(self)

    def cancel(self) -> None:
        """Withdraw the get if it has not been satisfied yet."""
        if not self.triggered:
            self.defused = True  # nothing will consume a cancelled get


class StorePut(Event):
    """Pending ``put`` on a bounded :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item
        store._on_put(self)


class Store:
    """FIFO item store with blocking get and (optionally bounded) put."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Add ``item``; blocks (stays pending) if the store is full."""
        return StorePut(self, item)

    def put_discard(self, item: Any) -> None:
        """Deposit ``item`` without creating an acknowledgement event.

        Behaviourally identical to calling :meth:`put` and discarding the
        returned event: on an unbounded store the put succeeds instantly,
        and an instantly-succeeded event nobody holds runs zero callbacks
        when it pops — pure event-queue overhead.  Hot no-ack producers
        (completion queues, notification channels) use this instead.
        Bounded stores must use :meth:`put` (the ack event is how their
        back-pressure is expressed).
        """
        if self.capacity is not None:
            raise ValueError("put_discard() requires an unbounded store")
        self.items.append(item)
        if self._getters:
            self._match()

    def get(self) -> StoreGet:
        """Remove and return the oldest item; blocks while empty."""
        return StoreGet(self)

    def _on_put(self, put: StorePut) -> None:
        self.items.append(put.item)
        # An unbounded put always succeeds at once: trigger and mark
        # processed in one step (see Resource._on_request) so the putter
        # resumes inline instead of paying a queue round-trip.
        put._ok = True
        put.callbacks = None
        if self._getters:
            self._match()

    def _on_get(self, get: StoreGet) -> None:
        if self.items and not self._getters:
            # Item already buffered and nobody queued ahead: serve
            # synchronously (``_match`` invariant guarantees the two
            # deques are never both non-empty between operations).
            get._ok = True
            get._value = self.items.popleft()
            get.callbacks = None
            if self._putters:
                self._match()
            return
        self._getters.append(get)
        self._match()

    def _match(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            if getter._ok is not None or getter.defused:
                continue
            getter.succeed(self.items.popleft())
        # Unblock putters while there is room.
        while self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            putter = self._putters.popleft()
            self.items.append(putter.item)
            putter.succeed()


class BoundedStore(Store):
    """A store whose put blocks when ``capacity`` items are buffered."""

    def __init__(self, sim: Simulator, capacity: int):
        super().__init__(sim, capacity=capacity)

    def _on_put(self, put: StorePut) -> None:
        if len(self.items) < self.capacity or self._getters:
            self.items.append(put.item)
            put.succeed()
            self._match()
        else:
            self._putters.append(put)


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.sim)
        self.amount = amount
        container._on_get(self)

    def cancel(self) -> None:
        """Withdraw the get if it has not been satisfied yet.

        A cancelled get never takes quantity out of the container;
        ``_match`` skips it, so getters queued behind it are not starved
        (mirrors :meth:`StoreGet.cancel`).
        """
        if not self.triggered:
            self.defused = True


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.sim)
        self.amount = amount
        container._on_put(self)


class Container:
    """A continuous quantity (e.g. bytes of free ring-buffer space)."""

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if init < 0 or init > capacity:
            raise ValueError(f"init={init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.level = init
        self._getters: Deque[ContainerGet] = deque()
        self._putters: Deque[ContainerPut] = deque()

    def get(self, amount: float) -> ContainerGet:
        """Take ``amount`` out; pending until enough is available (FIFO)."""
        return ContainerGet(self, amount)

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; pending until it fits under ``capacity``."""
        return ContainerPut(self, amount)

    def _on_get(self, get: ContainerGet) -> None:
        if not self._getters and get.amount <= self.level:
            # Immediately satisfiable with nobody queued ahead: take the
            # quantity and mark the event processed in one step (see
            # Resource._on_request).  The freed headroom may unblock a
            # queued putter, exactly as in the queued path.
            self.level -= get.amount
            get._ok = True
            get.callbacks = None
            if self._putters:
                self._match()
            return
        self._getters.append(get)
        self._match()

    def _on_put(self, put: ContainerPut) -> None:
        if not self._putters and self.level + put.amount <= self.capacity:
            self.level += put.amount
            put._ok = True
            put.callbacks = None
            if self._getters:
                self._match()
            return
        self._putters.append(put)
        self._match()

    def _match(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and (
                self.level + self._putters[0].amount <= self.capacity
            ):
                put = self._putters.popleft()
                self.level += put.amount
                put.succeed()
                progressed = True
            while self._getters and self._getters[0].defused:
                # Cancelled get (bounded-wait reservation that timed out):
                # drop it so it neither takes quantity nor blocks the FIFO.
                self._getters.popleft()
                progressed = True
            if self._getters and self._getters[0].amount <= self.level:
                get = self._getters.popleft()
                self.level -= get.amount
                get.succeed()
                progressed = True
