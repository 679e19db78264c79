"""The generic client session driving any :class:`PathPolicy`.

One execution skeleton serves every scheme: writes always travel the
fast-messaging path (the server's lock manager must serialize them,
paper §III-B); reads ask the policy, honour the optional offload circuit
breaker (an open breaker demotes the decision to fast messaging; an
``OffloadError`` under a breaker fails over instead of propagating),
annotate a trace span, and report the executed path and its latency back
to the policy.

Every scheme binds a policy to this one class
(:class:`~repro.runtime.policy.Algorithm1Policy`,
:class:`~repro.runtime.policy.BanditPolicy` or a fixed baseline); the
B+tree and cuckoo sessions override :meth:`_is_offloadable` /
:meth:`_offload` only — the selection machinery is structure-agnostic.

Layering note: like :mod:`repro.runtime.policy`, this module must not
import :mod:`repro.client` at module level; the few client-side symbols
are resolved lazily inside the methods that need them.
"""

from __future__ import annotations

from typing import Generator

from ..obs.trace import NULL_TRACER
from ..sim.kernel import Simulator
from .policy import PATH_FM, PATH_OFFLOAD, PathPolicy


class PolicySession:
    """Execute requests, choosing the access path via a pluggable policy."""

    def __init__(
        self,
        sim: Simulator,
        fm,
        engine,
        stats,
        policy: PathPolicy,
        tracer=None,
        breaker=None,
    ):
        self.policy = policy
        self.sim = sim
        self.fm = fm
        self.engine = engine
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional offload circuit breaker: when set, an OffloadError is
        #: recorded and the request falls over to fast messaging instead
        #: of propagating; a tripped breaker short-circuits offloading
        #: until a recovery probe succeeds.  When None, errors propagate
        #: (after ending the request's span with ``error``).
        self.breaker = breaker

    # -- hooks (overridden by structure-specific subclasses) ----------------

    def _is_offloadable(self, request) -> bool:
        """Only reads may bypass the server (writes need its locks)."""
        from ..client.base import READ_OPS
        return request.op in READ_OPS

    def _offload(self, request) -> Generator:
        """Execute one offloadable request via one-sided reads.

        Subclasses for other link-based structures (B+tree, cuckoo —
        paper §VI) override this and ``_is_offloadable``; the selection
        policy itself is structure-agnostic.
        """
        from ..client.offload_client import dispatch_read
        result = yield from dispatch_read(self.engine, request, self.fm)
        return result

    def _decide(self) -> bool:
        """Ask the policy; kept as a method so tests/subclasses can force
        a path."""
        return self.policy.decide_offload()

    # -- the shared decision and failover core ------------------------------

    def _decide_group(self, requests, span) -> bool:
        """Pick the path for ``requests``; True means offload.

        One decision covers the whole group (a batched client commits the
        group to a path up front, a single request is a group of one);
        the ``note_*`` hook still fires once per request so the policy's
        request-level accounting stays aligned with its counters.  An
        open breaker demotes an offload decision to fast messaging.
        """
        policy = self.policy
        if not self._decide():
            for _request in requests:
                policy.note_fm()
            span.annotate("decide", path=PATH_FM, **policy.fm_annotations())
            return False
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            # Offload path tripped: route through the server until a
            # recovery probe succeeds.
            for _request in requests:
                policy.note_fm(forced=True)
            span.annotate("decide", path=PATH_FM, reason="breaker-open")
            return False
        for _request in requests:
            policy.note_offload()
        span.annotate("decide", path=PATH_OFFLOAD,
                      **policy.offload_annotations())
        return True

    def _fail_over(self, span) -> bool:
        """Handle an ``OffloadError``; True to fail over to fast messaging.

        Without a breaker the error propagates: the span ends with
        ``error`` and the caller re-raises.  With one, the torn-read or
        restart storm is recorded and the server-side path serves the
        same requests under locks.
        """
        breaker = self.breaker
        if breaker is None:
            span.end(error="offload-error")
            return False
        breaker.record_failure()
        self.policy.note_failover()
        span.annotate("failover", reason="offload-error",
                      breaker=breaker.state)
        return True

    def _observe_offload(self, requests, start: float,
                         failed_over: bool = False) -> None:
        """Report an offload decision's outcome, once per request."""
        elapsed = self.sim.now - start
        if not failed_over and self.breaker is not None:
            self.breaker.record_success()
        for request in requests:
            self.policy.observe(request, PATH_OFFLOAD, elapsed,
                                failed_over=failed_over)

    # -- request execution -------------------------------------------------

    def execute(self, request) -> Generator:
        """Run one request, choosing the access path per the policy."""
        from ..client.offload_client import OffloadError
        span = self.tracer.span(self.policy.trace_component, request.op)
        if not self._is_offloadable(request):
            # Writes always go to the server through the ring buffer.
            span.annotate("decide", path=PATH_FM, reason="write")
            result = yield from self.fm.execute(request)
            span.end(path=PATH_FM)
            return result
        group = (request,)
        start = self.sim.now
        if not self._decide_group(group, span):
            result = yield from self.fm.execute(request)
            self.policy.observe(request, PATH_FM, self.sim.now - start)
            span.end(path=PATH_FM)
            return result
        try:
            result = yield from self._offload(request)
        except OffloadError:
            if not self._fail_over(span):
                raise
            result = yield from self.fm.execute(request)
            self._observe_offload(group, start, failed_over=True)
            span.end(path="fm-failover")
            return result
        self._observe_offload(group, start)
        span.end(path=PATH_OFFLOAD)
        return result

    def execute_search_batch(self, requests) -> Generator:
        """Run a group of search requests as one batched offload.

        The group shares :meth:`execute`'s decision and failover core;
        each request observes the batch wall time, which is exactly how
        long a synchronous batched client waited for it.  Falls back to
        per-request :meth:`execute` when the group is trivial or the
        engine has no ``search_batch`` (TCP / fast-messaging-only
        schemes, the sharded router).
        """
        from ..client.offload_client import OffloadError
        engine_batch = getattr(self.engine, "search_batch", None)
        if len(requests) <= 1 or engine_batch is None:
            results = []
            for request in requests:
                result = yield from self.execute(request)
                results.append(result)
            return results
        span = self.tracer.span(self.policy.trace_component, "search-batch")
        queries = len(requests)
        if not self._decide_group(requests, span):
            results = []
            for request in requests:
                start = self.sim.now
                result = yield from self.fm.execute(request)
                self.policy.observe(request, PATH_FM, self.sim.now - start)
                results.append(result)
            span.end(path=PATH_FM, queries=queries)
            return results
        start = self.sim.now
        try:
            results = yield from engine_batch(
                [request.rect for request in requests])
        except OffloadError:
            if not self._fail_over(span):
                raise
            results = []
            for request in requests:
                result = yield from self.fm.execute(request)
                results.append(result)
            self._observe_offload(requests, start, failed_over=True)
            span.end(path="fm-failover", queries=queries)
            return results
        self._observe_offload(requests, start)
        span.end(path=PATH_OFFLOAD, queries=queries)
        return results
