"""Unit tests for the observability layer: registry, traces, export."""

import json
import math

import pytest

from repro.obs import (
    SCHEMA,
    Counter,
    Gauge,
    LatencyView,
    MetricsRegistry,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    WindowSampler,
    dumps,
    load_metrics_json,
    snapshot_document,
    write_metrics_json,
)
from repro.sim import Simulator
from repro.sim.monitor import LatencyRecorder


class TestCounter:
    def test_snapshot(self):
        c = Counter("x", lambda: 7)
        assert c.snapshot() == {"type": "counter", "value": 7}


class TestGauge:
    def test_callback_gauge_is_live(self):
        state = {"v": 1.0}
        g = Gauge("g", fn=lambda: state["v"])
        assert g.get() == 1.0
        state["v"] = 2.0
        assert g.get() == 2.0
        assert g.snapshot() == {"type": "gauge", "value": 2.0}


class Owner:
    """A counting class: plain int attributes named in ``COUNTERS``."""

    COUNTERS = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0


class TestRegisterCounters:
    def test_sums_over_owners_live(self):
        m = MetricsRegistry()
        owners = [Owner(), Owner()]
        m.register_counters("cache", owners)
        assert m.names() == ["cache.hits", "cache.misses"]
        owners[0].hits += 2
        owners[1].hits += 3
        snap = m.snapshot()
        assert snap["cache.hits"] == {"type": "counter", "value": 5}
        assert snap["cache.misses"] == {"type": "counter", "value": 0}

    def test_owners_read_at_snapshot_time(self):
        m = MetricsRegistry()
        owners = [Owner()]
        m.register_counters("cache", owners)
        owners.append(Owner())
        owners[1].misses = 4
        assert m.snapshot()["cache.misses"]["value"] == 4

    def test_no_owners_registers_nothing(self):
        m = MetricsRegistry()
        m.register_counters("cache", [])
        assert len(m) == 0


class TestLatencyView:
    def test_rescales_recorder(self):
        rec = LatencyRecorder()
        for v in (1e-6, 2e-6, 3e-6):
            rec.record(v)
        view = LatencyView(rec, scale=1e6, unit="us")
        snap = view.snapshot()
        assert snap["count"] == 3
        assert snap["mean"] == pytest.approx(2.0)
        assert snap["min"] == pytest.approx(1.0)
        assert snap["max"] == pytest.approx(3.0)
        assert snap["unit"] == "us"

    def test_empty_recorder_snapshots_nan(self):
        snap = LatencyView(LatencyRecorder()).snapshot()
        assert snap["type"] == "histogram"
        assert snap["count"] == 0
        assert math.isnan(snap["mean"])
        assert math.isnan(snap["p50"])

    def test_extremes_are_exact(self):
        rec = LatencyRecorder()
        for v in (1.0, 2.0, 3.0):
            rec.record(v)
        snap = LatencyView(rec).snapshot()
        assert (snap["min"], snap["max"]) == (1.0, 3.0)
        assert snap["p50"] == 2.0


class TestWindowSampler:
    def test_samples_on_sim_clock(self):
        sim = Simulator()
        sampler = WindowSampler(sim, lambda: sim.now * 10.0,
                                interval=1e-3).start()
        sim.run(until=5.5e-3)
        times = [t for t, _v in sampler.points]
        assert times == pytest.approx([1e-3, 2e-3, 3e-3, 4e-3, 5e-3])

    def test_while_fn_stops_sampling(self):
        sim = Simulator()
        sampler = WindowSampler(sim, lambda: 1.0, interval=1e-3,
                                while_fn=lambda: sim.now < 3e-3).start()
        sim.run(until=0.1)
        assert len(sampler.points) <= 4

    def test_bounded_points(self):
        sim = Simulator()
        sampler = WindowSampler(sim, lambda: 0.0, interval=1e-4,
                                max_points=16).start()
        sim.run(until=0.1)
        assert len(sampler.points) == 16

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            WindowSampler(Simulator(), lambda: 0.0, interval=0.0)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        m = MetricsRegistry()
        g1 = m.expose("a.b", lambda: 1)
        g2 = m.expose("a.b", lambda: 2)
        assert g1 is g2
        assert len(m) == 1

    def test_kind_collision_rejected(self):
        m = MetricsRegistry()
        m.register_counters("c", [Owner()])
        with pytest.raises(ValueError):
            m.expose("c.hits", lambda: 0)
        with pytest.raises(ValueError):
            m.sampler(Simulator(), "c.misses", lambda: 0.0, interval=1.0)

    def test_adopt_external_counter(self):
        m = MetricsRegistry()
        state = {"v": 0}
        c = Counter("", lambda: state["v"])
        m.adopt("x.y", c)
        state["v"] = 3
        assert m.snapshot()["x.y"] == {"type": "counter", "value": 3}
        assert c.name == "x.y"  # adoption names anonymous metrics

    def test_adopt_same_object_twice_ok(self):
        m = MetricsRegistry()
        c = Counter("c", lambda: 0)
        m.adopt("c", c)
        m.adopt("c", c)
        with pytest.raises(ValueError):
            m.adopt("c", Counter("other", lambda: 0))

    def test_adopt_requires_snapshot(self):
        with pytest.raises(TypeError):
            MetricsRegistry().adopt("bad", object())

    def test_expose_pull_gauge(self):
        m = MetricsRegistry()
        state = {"v": 0}
        m.expose("live", lambda: state["v"])
        state["v"] = 9
        assert m.snapshot()["live"]["value"] == 9

    def test_snapshot_covers_everything(self):
        m = MetricsRegistry()
        m.register_counters("c", [Owner()])
        m.expose("g", lambda: 1.5)
        m.adopt("h", LatencyView(LatencyRecorder(), unit="us"))
        snap = m.snapshot()
        assert set(snap) == {"c.hits", "c.misses", "g", "h"}
        assert snap["c.hits"]["type"] == "counter"
        assert snap["g"]["type"] == "gauge"
        assert snap["h"]["type"] == "histogram"


class TestTracer:
    def make(self, **kw):
        sim = Simulator()
        return sim, Tracer(sim, **kw)

    def test_span_records_begin_annotate_end(self):
        sim, tracer = self.make()
        with tracer.span("offload", "search", op_id=7) as span:
            span.annotate("issue", level=2)
        events = tracer.events
        assert [e.name for e in events] == ["begin", "issue", "end"]
        assert events[0].attrs["op_id"] == 7
        assert events[-1].attrs["elapsed"] == 0.0

    def test_disabled_component_returns_null_span(self):
        sim, tracer = self.make(components=("adaptive",))
        assert tracer.span("offload", "search") is NULL_SPAN
        assert tracer.span("adaptive", "x") is not NULL_SPAN

    def test_enable_disable_toggles(self):
        sim, tracer = self.make()
        assert tracer.is_enabled("anything")
        tracer.disable()
        assert not tracer.is_enabled("offload")
        tracer.enable("offload")
        assert tracer.is_enabled("offload")
        assert not tracer.is_enabled("adaptive")

    def test_bounded_ring_counts_drops(self):
        sim, tracer = self.make(max_events=10)
        for i in range(25):
            tracer.span("c", f"op{i}")  # one "begin" event each
        assert len(tracer.events) == 10
        assert tracer.total_events == 25
        assert tracer.dropped_events == 15

    def test_spans_grouping(self):
        sim, tracer = self.make()
        s1 = tracer.span("c", "a")
        s2 = tracer.span("c", "b")
        s1.annotate("phase")
        s1.end()
        s2.end()
        grouped = tracer.spans()
        assert len(grouped) == 2
        assert [e.name for e in grouped[s1.span_id]] == \
            ["begin", "phase", "end"]

    def test_end_is_idempotent(self):
        sim, tracer = self.make()
        span = tracer.span("c", "a")
        span.end()
        span.end()
        assert [e.name for e in tracer.events].count("end") == 1

    def test_exception_annotates_error(self):
        sim, tracer = self.make()
        with pytest.raises(RuntimeError):
            with tracer.span("c", "a"):
                raise RuntimeError("boom")
        assert "error" in tracer.events[-1].attrs

    def test_null_tracer_is_free(self):
        span = NULL_TRACER.span("c", "a")
        assert span is NULL_SPAN
        span.annotate("x").end()
        assert NULL_TRACER.snapshot()["total_events"] == 0

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            Tracer(Simulator(), max_events=0)


class TestExport:
    def make_registry(self):
        m = MetricsRegistry()
        owner = Owner()
        owner.hits = 5
        m.register_counters("cache", [owner])
        m.expose("util", lambda: 0.4)
        rec = LatencyRecorder()
        for v in (1.0, 2.0, 3.0):
            rec.record(v)
        m.adopt("lat", LatencyView(rec, unit="us"))
        return m

    def test_document_shape(self):
        doc = snapshot_document(self.make_registry(),
                                meta={"scheme": "catfish"})
        assert doc["schema"] == SCHEMA
        assert doc["meta"]["scheme"] == "catfish"
        assert doc["metrics"]["cache.hits"]["value"] == 5
        assert "trace" not in doc

    def test_trace_included_when_nonempty(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.span("c", "op").end()
        doc = snapshot_document(self.make_registry(), tracer=tracer)
        assert doc["trace"]["total_events"] == 2

    def test_nan_becomes_null(self):
        m = MetricsRegistry()
        m.adopt("empty", LatencyView(LatencyRecorder()))  # NaN percentiles
        text = dumps(snapshot_document(m))
        parsed = json.loads(text)  # must be strict JSON
        assert parsed["metrics"]["empty"]["p99"] is None

    def test_counters_serialize_as_ints(self):
        m = MetricsRegistry()
        owner = Owner()
        owner.hits = 3
        m.register_counters("c", [owner])
        parsed = json.loads(dumps(snapshot_document(m)))
        assert parsed["metrics"]["c.hits"] == {"type": "counter", "value": 3}

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        doc = snapshot_document(self.make_registry(), meta={"seed": 0})
        write_metrics_json(path, doc)
        loaded = load_metrics_json(path)
        assert loaded["schema"] == SCHEMA
        assert loaded["metrics"]["lat"]["count"] == 3


class TestEndToEnd:
    def test_run_result_carries_metrics_document(self):
        from repro import ExperimentConfig, run_experiment
        result = run_experiment(ExperimentConfig(
            scheme="catfish", n_clients=2, requests_per_client=20,
            dataset_size=2_000, trace=True,
        ))
        doc = result.metrics
        assert doc["schema"] == SCHEMA
        assert doc["metrics"]["client.requests_sent"]["value"] == 40
        assert doc["metrics"]["client.latency_us"]["count"] == 40
        assert doc["metrics"]["client.latency_us"]["p99"] > 0
        assert doc["trace"]["total_events"] > 0
        # strict JSON end to end
        json.loads(dumps(doc))
