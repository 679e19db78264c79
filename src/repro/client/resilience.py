"""Client-side resilience: request deadlines, retries, circuit breaking.

Catfish's hybrid design gives a client two independent paths to the same
data (fast messaging and one-sided offloading), but the seed reproduction
had no way to *survive* a misbehaving path: a full ring blocked forever, a
lost response stalled the client for good, and an ``OffloadError`` storm
simply propagated.  This module supplies the three mechanisms the fault
model (``repro.faults``) demands:

* :class:`RetryPolicy` — per-request deadline plus jittered
  exponential-backoff retry budget for :class:`~repro.client.fm_client.FmSession`;
* :class:`RequestTimeoutError` — raised when the budget is exhausted;
* :class:`CircuitBreaker` — closed/open/half-open failover state for the
  adaptive client: after repeated offload failures it routes everything
  through fast messaging and periodically probes the offload path for
  recovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..sim.kernel import Simulator
from .base import READ_OPS


class RequestTimeoutError(Exception):
    """A request's deadline/retry budget was exhausted without a response."""


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + retry tunables for fast-messaging requests.

    One *attempt* is: reserve ring space (bounded by
    :attr:`reserve_timeout_s`), post the write, then wait up to
    :attr:`deadline_s` for the complete response.  A failed attempt backs
    off ``backoff_base_s * backoff_factor**attempt``, jittered by
    ``+/- backoff_jitter`` relative, before the next try.

    Writes are not retried unless :attr:`retry_writes` is set: a timed-out
    insert may have executed on the server (the response, not the request,
    may be what got delayed), and blindly re-sending would double-apply
    it.  Reads are idempotent, so they always get the full budget.
    """

    deadline_s: float = 2e-3
    max_attempts: int = 4
    backoff_base_s: float = 50e-6
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    retry_writes: bool = False
    #: Bound on the ring-space wait per attempt; None means "use
    #: ``deadline_s``" (the reservation is part of the attempt).
    reserve_timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.deadline_s <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline_s}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(
                f"jitter must be in [0, 1), got {self.backoff_jitter}"
            )

    @property
    def reserve_timeout(self) -> float:
        return (self.reserve_timeout_s if self.reserve_timeout_s is not None
                else self.deadline_s)

    def attempts_for(self, op: str) -> int:
        """Retry budget for ``op`` (writes get one shot by default)."""
        if op in READ_OPS or self.retry_writes:
            return self.max_attempts
        return 1

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Jittered exponential delay before attempt ``attempt + 1``."""
        base = self.backoff_base_s * self.backoff_factor ** attempt
        if self.backoff_jitter:
            base *= 1.0 + self.backoff_jitter * (2.0 * rng.random() - 1.0)
        return base


# Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerParams:
    """Circuit-breaker tunables for the adaptive client's offload path."""

    #: Consecutive failures (from CLOSED) that trip the breaker.
    failure_threshold: int = 3
    #: Initial OPEN hold before the first recovery probe.
    cooldown_s: float = 2e-3
    #: Cooldown growth per failed probe (capped by ``max_cooldown_s``).
    cooldown_factor: float = 2.0
    max_cooldown_s: float = 50e-3

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s <= 0 or self.max_cooldown_s < self.cooldown_s:
            raise ValueError("need 0 < cooldown_s <= max_cooldown_s")
        if self.cooldown_factor < 1.0:
            raise ValueError(
                f"cooldown_factor must be >= 1, got {self.cooldown_factor}"
            )


class CircuitBreaker:
    """Fail over from offloading after repeated errors; probe for recovery.

    State machine (queried via :meth:`allow` before every offload):

    * **closed** — offloading allowed.  ``failure_threshold`` consecutive
      failures trip it open.
    * **open** — offloading short-circuited (the adaptive client falls
      back to fast messaging).  After the cooldown elapses the next
      ``allow()`` transitions to half-open.
    * **half-open** — one probe request is let through.  Success closes
      the breaker (and resets the cooldown); failure re-opens it with the
      cooldown grown by ``cooldown_factor``.
    """

    COUNTERS = ("trips", "probes", "recoveries", "short_circuits")

    def __init__(self, sim: Simulator,
                 params: BreakerParams = BreakerParams()):
        self.sim = sim
        self.params = params
        self.state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._cooldown = params.cooldown_s
        self.trips = 0
        self.probes = 0
        self.recoveries = 0
        self.short_circuits = 0

    def allow(self) -> bool:
        """Whether the next offload may proceed (may move OPEN→HALF_OPEN)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.sim.now - self._opened_at >= self._cooldown:
                self.state = HALF_OPEN
                self.probes += 1
                return True
            self.short_circuits += 1
            return False
        # HALF_OPEN: the probe's outcome has not been recorded yet.  Each
        # client session is synchronous, so at most one request is in
        # flight — letting it through keeps probing live.
        self.probes += 1
        return True

    def record_success(self) -> None:
        if self.state != CLOSED:
            self.recoveries += 1
            self._cooldown = self.params.cooldown_s
        self.state = CLOSED
        self._failures = 0

    def record_failure(self) -> None:
        self._failures += 1
        if self.state == HALF_OPEN:
            # Failed probe: back off harder before the next one.
            self._cooldown = min(self._cooldown * self.params.cooldown_factor,
                                 self.params.max_cooldown_s)
            self._open()
        elif (self.state == CLOSED
              and self._failures >= self.params.failure_threshold):
            self._open()

    def _open(self) -> None:
        self.state = OPEN
        self._opened_at = self.sim.now
        self.trips += 1
