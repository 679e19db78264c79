"""The metrics registry: counters, gauges, latency views, samplers.

Every component of the reproduction (server, clients, offload engine,
heartbeat service, ring buffers, transport) registers its numbers here
so one :meth:`MetricsRegistry.snapshot` call captures the whole system —
the substrate the benchmark JSON artifacts are built from.

Design constraints:

* **Counters are plain ints.**  A counting class keeps each counter as
  an ``int`` attribute and names it once, in a class-level ``COUNTERS``
  tuple.  :meth:`MetricsRegistry.register_counters` exposes those names,
  summed over a list of owners, as pull metrics, so an increment on the
  hot path is one integer add.
* **No wall-clock calls.**  Anything time-based (the windowed samplers) is
  driven by the simulation clock, so metrics are deterministic and
  reproducible for a given seed.
* **Bounded memory.**  Samplers keep a bounded ring of points.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence


class Gauge:
    """A pull metric: a name plus a function read at snapshot time.

    Gauges are how derived numbers (ring watermarks, QP byte counts, CPU
    utilization, queue depths) join the registry without the component
    that owns them changing.
    """

    kind = "gauge"
    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], Any]):
        self.name = name
        self._fn = fn

    def get(self) -> Any:
        return self._fn()

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self._fn()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, value={self.get()})"


class Counter(Gauge):
    """A pull metric over a count: the sum of plain ``int`` attributes
    that their owners declare in ``COUNTERS`` (see
    :meth:`MetricsRegistry.register_counters`)."""

    kind = "counter"
    __slots__ = ()


class LatencyView:
    """Adapter exposing an exact :class:`~repro.sim.monitor.LatencyRecorder`
    through the histogram snapshot schema (optionally rescaled, e.g.
    seconds -> microseconds)."""

    kind = "histogram"
    __slots__ = ("name", "recorder", "scale", "unit", "loop")

    def __init__(self, recorder, scale: float = 1.0, unit: str = "",
                 name: str = "", loop: str = ""):
        self.name = name
        self.recorder = recorder
        self.scale = scale
        self.unit = unit
        # Measurement methodology tag: "closed" (synchronous drivers —
        # subject to coordinated omission) or "open" (arrival-clocked).
        self.loop = loop

    def snapshot(self) -> Dict[str, Any]:
        rec = self.recorder
        empty = rec.count == 0
        snap = {
            "type": "histogram",
            "unit": self.unit,
            "count": rec.count,
            "mean": rec.mean * self.scale,
            "min": (min(rec.samples) * self.scale) if not empty else math.nan,
            "max": (max(rec.samples) * self.scale) if not empty else math.nan,
            "p50": rec.percentile(50) * self.scale,
            "p95": rec.percentile(95) * self.scale,
            "p99": rec.percentile(99) * self.scale,
            "p999": rec.percentile(99.9) * self.scale,
        }
        if self.loop:
            snap["loop"] = self.loop
        return snap


class WindowSampler:
    """Bounded (time, value) series sampled on the simulation clock.

    ``while_fn`` (when given) stops the sampling process once it returns
    False — e.g. "while any client driver is alive" — so an experiment's
    event queue still drains.
    """

    kind = "series"

    def __init__(
        self,
        sim,
        fn: Callable[[], float],
        interval: float,
        name: str = "",
        max_points: int = 1024,
        while_fn: Optional[Callable[[], bool]] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.sim = sim
        self.name = name
        self.interval = interval
        self._fn = fn
        self._while = while_fn
        self.points: deque = deque(maxlen=max_points)
        self._proc = None

    def start(self) -> "WindowSampler":
        if self._proc is None:
            self._proc = self.sim.process(
                self._run(), name=f"sampler-{self.name or 'anon'}"
            )
        return self

    def _run(self) -> Generator:
        while self._while is None or self._while():
            yield self.sim.timeout(self.interval)
            self.points.append((self.sim.now, float(self._fn())))

    def values(self) -> List[float]:
        return [v for _t, v in self.points]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "series",
            "interval": self.interval,
            "points": [[t, v] for t, v in self.points],
        }


class MetricsRegistry:
    """Name -> metric map.

    Names are dotted paths (``server.requests_handled``,
    ``client.latency_us``); the registry itself imposes no hierarchy
    beyond what the names spell out.
    """

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, Any]" = OrderedDict()

    def _get_or_create(self, name: str, factory, expected_kind: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if getattr(existing, "kind", None) != expected_kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{getattr(existing, 'kind', type(existing).__name__)!r}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def expose(self, name: str, fn: Callable[[], Any]) -> Gauge:
        """Register a pull gauge over a derived value (get-or-create)."""
        return self._get_or_create(name, lambda: Gauge(name, fn), "gauge")

    def register_counters(self, prefix: str, owners: Sequence) -> None:
        """Register ``{prefix}.{name}`` for every name in the owners'
        ``COUNTERS``, each the sum of that attribute over ``owners``.

        The one registration path for counters, whatever the deployment
        shape: one owner gives its own values, K shards or N clients give
        cluster-wide sums.  ``owners`` is read at snapshot time, so it
        may still grow; without owners nothing is registered.
        """
        def total(field: str) -> Callable[[], int]:
            return lambda: sum(getattr(o, field) for o in owners)

        if not owners:
            return
        for field in owners[0].COUNTERS:
            name = f"{prefix}.{field}"
            self._get_or_create(
                name, lambda: Counter(name, total(field)), "counter")

    def sampler(
        self,
        sim,
        name: str,
        fn: Callable[[], float],
        interval: float,
        max_points: int = 1024,
        while_fn: Optional[Callable[[], bool]] = None,
    ) -> WindowSampler:
        sampler = self._get_or_create(
            name,
            lambda: WindowSampler(sim, fn, interval, name=name,
                                  max_points=max_points, while_fn=while_fn),
            "series",
        )
        return sampler.start()

    def adopt(self, name: str, metric) -> Any:
        """Register an externally owned metric (anything with
        ``snapshot()``, e.g. a :class:`LatencyView`) under ``name``."""
        if not hasattr(metric, "snapshot"):
            raise TypeError(
                f"{type(metric).__name__} has no snapshot(); cannot adopt"
            )
        existing = self._metrics.get(name)
        if existing is not None and existing is not metric:
            raise ValueError(f"metric {name!r} already registered")
        if getattr(metric, "name", None) in ("", None):
            try:
                metric.name = name
            except AttributeError:
                pass
        self._metrics[name] = metric
        return metric

    # -- introspection -----------------------------------------------------

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return list(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One JSON-ready dict capturing every registered metric now."""
        return {name: metric.snapshot()
                for name, metric in self._metrics.items()}
