"""Experiment result aggregation."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..client.base import ClientStats
from ..sim.monitor import LatencyRecorder

#: Seconds to microseconds, the unit of every latency field.
TO_US = 1e6


@dataclass
class RunResult:
    """All metrics of one experiment run, paper-figure ready."""

    scheme: str
    fabric: str
    n_clients: int
    total_requests: int
    elapsed_s: float

    #: Kops, the paper's Fig 10/12/14 unit.
    throughput_kops: float
    #: Microseconds, the paper's Fig 11/13/14 unit.
    mean_latency_us: float
    p50_latency_us: float
    p99_latency_us: float
    mean_search_latency_us: float

    server_cpu_utilization: float
    server_bandwidth_gbps: float
    server_bandwidth_utilization: float

    offload_fraction: float
    torn_retries: int
    search_restarts: int
    #: p99.9 tail; defaulted (and excluded from the fingerprint) so the
    #: pre-existing goldens stay valid.
    p999_latency_us: float = float("nan")
    heartbeats_sent: int = 0
    heartbeats_dropped: int = 0
    searches_served_by_server: int = 0
    inserts_served: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Optional per-window trace: (time_s, cpu_utilization,
    #: offload_fraction_in_window); filled when
    #: ``ExperimentConfig.collect_timeline`` is set.
    timeline: List[tuple] = field(default_factory=list)
    #: Full observability snapshot (``catfish-metrics/v1`` document):
    #: registry counters/gauges/histograms plus optional trace events.
    #: See docs/observability.md.
    metrics: Dict[str, Any] = field(default_factory=dict)

    def row(self) -> str:
        """One formatted table row (the bench harness prints these)."""
        return (
            f"{self.scheme:>22} {self.fabric:>8} {self.n_clients:>5} "
            f"{self.throughput_kops:>10.1f} {self.mean_latency_us:>10.1f} "
            f"{self.p99_latency_us:>10.1f} "
            f"{self.server_cpu_utilization * 100:>6.1f}% "
            f"{self.server_bandwidth_gbps:>8.3f} "
            f"{self.offload_fraction * 100:>6.1f}%"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'scheme':>22} {'fabric':>8} {'cli':>5} "
            f"{'Kops':>10} {'mean_us':>10} {'p99_us':>10} "
            f"{'cpu':>7} {'gbps':>8} {'offl':>7}"
        )


def result_fingerprint(result: RunResult) -> str:
    """A 16-hex digest over every numeric field of one run.

    Two runs with the same fingerprint produced bit-identical simulated
    timing and counters — the regression oracle behind the runtime-layer
    determinism contract (floats are hashed via ``repr``, i.e. exactly,
    not up to rounding).  The metrics snapshot document is deliberately
    excluded so purely observational additions don't invalidate goldens.
    """
    fields = (
        result.scheme, result.fabric, result.n_clients,
        result.total_requests, result.elapsed_s, result.throughput_kops,
        result.mean_latency_us, result.p50_latency_us, result.p99_latency_us,
        result.mean_search_latency_us, result.server_cpu_utilization,
        result.server_bandwidth_gbps, result.server_bandwidth_utilization,
        result.offload_fraction, result.torn_retries, result.search_restarts,
        result.heartbeats_sent, result.heartbeats_dropped,
        result.searches_served_by_server, result.inserts_served,
    )
    parts = []
    for value in fields:
        if isinstance(value, float):
            parts.append("nan" if math.isnan(value) else repr(value))
        else:
            parts.append(repr(value))
    digest = hashlib.sha256("|".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def merge_client_stats(all_stats: List[ClientStats]) -> ClientStats:
    """Combine per-client stats into one aggregate."""
    from ..client.base import CLIENT_COUNTER_FIELDS
    merged = ClientStats()
    for stats in all_stats:
        for sample in stats.latency.samples:
            merged.latency.record(sample)
        for sample in stats.search_latency.samples:
            merged.search_latency.record(sample)
        for name in CLIENT_COUNTER_FIELDS:
            counter = getattr(merged, name)
            counter += int(getattr(stats, name))
            setattr(merged, name, counter)
    return merged


def summarize(
    *,
    scheme: str,
    fabric: str,
    n_clients: int,
    total_requests: int,
    elapsed_s: float,
    throughput_kops: float,
    latency: LatencyRecorder,
    search_latency: LatencyRecorder,
    counters: ClientStats,
    cpu_utilization: float,
    bandwidth_gbps: float,
    link_bps: float,
    heartbeats: Sequence,
    **fields: Any,
) -> RunResult:
    """The one :class:`RunResult` collector of every driver.

    ``latency``/``search_latency`` are the recorders the run is judged
    by (closed loop: the clients' request latency; open loop: sojourn
    time), ``counters`` the merged client counters, ``link_bps`` the
    summed server link capacity and ``heartbeats`` every server's
    heartbeat service.  ``fields`` carries the remaining
    :class:`RunResult` fields verbatim.
    """
    return RunResult(
        scheme=scheme,
        fabric=fabric,
        n_clients=n_clients,
        total_requests=total_requests,
        elapsed_s=elapsed_s,
        throughput_kops=throughput_kops,
        mean_latency_us=latency.mean * TO_US,
        p50_latency_us=latency.percentile(50) * TO_US,
        p99_latency_us=latency.percentile(99) * TO_US,
        p999_latency_us=latency.percentile(99.9) * TO_US,
        mean_search_latency_us=(
            search_latency.mean * TO_US if search_latency.count
            else float("nan")
        ),
        server_cpu_utilization=cpu_utilization,
        server_bandwidth_gbps=bandwidth_gbps,
        server_bandwidth_utilization=bandwidth_gbps * 1e9 / link_bps,
        offload_fraction=counters.offload_fraction,
        torn_retries=int(counters.torn_retries),
        search_restarts=int(counters.search_restarts),
        heartbeats_sent=sum(int(hb.beats_sent) for hb in heartbeats),
        heartbeats_dropped=sum(int(hb.beats_dropped) for hb in heartbeats),
        **fields,
    )
