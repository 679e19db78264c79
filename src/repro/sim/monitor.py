"""Measurement helpers: time-weighted statistics, utilization, rates.

Every quantitative claim in the reproduction (CPU utilization heartbeats,
NIC bandwidth in Fig 2, latency distributions in Figs 7-14) is computed by
one of these trackers, so they are deliberately small and heavily tested.
"""

from __future__ import annotations

import math
from typing import List

from .kernel import Simulator


class TallyStats:
    """Streaming mean / variance / min / max over observed samples."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0 if self.count else math.nan
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        var = self.variance
        return math.sqrt(var) if var == var else math.nan


class LatencyRecorder:
    """Stores every sample so percentiles can be computed exactly.

    Latencies per experiment are at most a few hundred thousand floats,
    which is cheap to keep.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stats = TallyStats()

    def record(self, value: float) -> None:
        self.samples.append(value)
        self.stats.record(value)

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def mean(self) -> float:
        return self.stats.mean

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self.samples:
            return math.nan
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac


class UtilizationTracker:
    """Time-weighted busy fraction of a pool of ``capacity`` servers.

    Call :meth:`set_busy` whenever the number of busy servers changes.
    Utilization over a window is busy-server-time / (capacity * window).
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._busy = 0
        self._last_change = sim.now
        self._busy_time = 0.0  # cumulative busy * seconds
        self._window_start = sim.now
        self._window_busy_time = 0.0

    def _accumulate(self) -> None:
        elapsed = self.sim.now - self._last_change
        if elapsed > 0:
            self._busy_time += self._busy * elapsed
            self._window_busy_time += self._busy * elapsed
        self._last_change = self.sim.now

    def set_busy(self, busy: int) -> None:
        if busy < 0 or busy > self.capacity:
            raise ValueError(f"busy={busy} outside [0, {self.capacity}]")
        self._accumulate()
        self._busy = busy

    def adjust(self, delta: int) -> None:
        self.set_busy(self._busy + delta)

    @property
    def busy(self) -> int:
        return self._busy

    def utilization_since_start(self) -> float:
        self._accumulate()
        total = self.sim.now * self.capacity
        return self._busy_time / total if total > 0 else 0.0

    def window_utilization(self, reset: bool = True) -> float:
        """Utilization since the last window reset (the heartbeat reading)."""
        self._accumulate()
        window = self.sim.now - self._window_start
        if window <= 0:
            return float(self._busy) / self.capacity
        value = self._window_busy_time / (window * self.capacity)
        if reset:
            self._window_start = self.sim.now
            self._window_busy_time = 0.0
        return value


class ByteCounter:
    """Counts bytes moved through a link; reports average bandwidth."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.total_bytes = 0
        self.total_messages = 0
        self._window_start = sim.now
        self._window_bytes = 0

    def record(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        self.total_bytes += nbytes
        self._window_bytes += nbytes
        self.total_messages += 1

    def bandwidth_since_start(self) -> float:
        """Average bytes/second since t=0."""
        return self.total_bytes / self.sim.now if self.sim.now > 0 else 0.0

    def window_bandwidth(self, reset: bool = True) -> float:
        window = self.sim.now - self._window_start
        value = self._window_bytes / window if window > 0 else 0.0
        if reset:
            self._window_start = self.sim.now
            self._window_bytes = 0
        return value
