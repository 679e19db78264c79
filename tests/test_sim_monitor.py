"""Unit tests for measurement trackers."""

import math

import pytest

from repro.sim import (
    ByteCounter,
    LatencyRecorder,
    Simulator,
    TallyStats,
    UtilizationTracker,
)


class TestTallyStats:
    def test_empty(self):
        s = TallyStats()
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_mean_and_extremes(self):
        s = TallyStats()
        for v in [1.0, 2.0, 3.0, 4.0]:
            s.record(v)
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_variance_matches_textbook(self):
        s = TallyStats()
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for v in data:
            s.record(v)
        mean = sum(data) / len(data)
        var = sum((v - mean) ** 2 for v in data) / (len(data) - 1)
        assert s.variance == pytest.approx(var)
        assert s.stdev == pytest.approx(math.sqrt(var))

    def test_single_sample_variance_zero(self):
        s = TallyStats()
        s.record(5.0)
        assert s.variance == 0.0


class TestLatencyRecorder:
    def test_percentiles(self):
        r = LatencyRecorder()
        for v in range(1, 101):
            r.record(float(v))
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 100.0
        assert r.percentile(50) == pytest.approx(50.5)
        assert r.percentile(99) == pytest.approx(99.01)

    def test_percentile_empty_is_nan(self):
        r = LatencyRecorder()
        assert math.isnan(r.percentile(50))

    def test_percentile_bounds(self):
        r = LatencyRecorder()
        r.record(1.0)
        with pytest.raises(ValueError):
            r.percentile(101)

    def test_mean_tracks_stats(self):
        r = LatencyRecorder()
        r.record(10.0)
        r.record(20.0)
        assert r.mean == pytest.approx(15.0)
        assert r.count == 2


class TestUtilizationTracker:
    def test_fully_busy(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=2)
        u.set_busy(2)
        sim.run(until=10.0)
        assert u.utilization_since_start() == pytest.approx(1.0)

    def test_half_busy(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=2)
        u.set_busy(1)
        sim.run(until=10.0)
        assert u.utilization_since_start() == pytest.approx(0.5)

    def test_time_weighted_transitions(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=1)

        def proc(sim, u):
            u.set_busy(1)
            yield sim.timeout(3.0)
            u.set_busy(0)
            yield sim.timeout(7.0)

        sim.process(proc(sim, u))
        sim.run()
        assert u.utilization_since_start() == pytest.approx(0.3)

    def test_window_reset(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=1)

        def proc(sim, u, readings):
            u.set_busy(1)
            yield sim.timeout(5.0)
            readings.append(u.window_utilization())
            u.set_busy(0)
            yield sim.timeout(5.0)
            readings.append(u.window_utilization())

        readings = []
        sim.process(proc(sim, u, readings))
        sim.run()
        assert readings[0] == pytest.approx(1.0)
        assert readings[1] == pytest.approx(0.0)

    def test_busy_bounds_validated(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=2)
        with pytest.raises(ValueError):
            u.set_busy(3)
        with pytest.raises(ValueError):
            u.set_busy(-1)

    def test_adjust(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=4)
        u.adjust(+2)
        assert u.busy == 2
        u.adjust(-1)
        assert u.busy == 1


class TestByteCounter:
    def test_bandwidth_since_start(self):
        sim = Simulator()
        c = ByteCounter(sim)

        def proc(sim, c):
            c.record(1000)
            yield sim.timeout(2.0)
            c.record(1000)

        sim.process(proc(sim, c))
        sim.run()
        assert c.bandwidth_since_start() == pytest.approx(1000.0)
        assert c.total_messages == 2

    def test_window_bandwidth_resets(self):
        sim = Simulator()
        c = ByteCounter(sim)

        def proc(sim, c, out):
            c.record(500)
            yield sim.timeout(1.0)
            out.append(c.window_bandwidth())
            yield sim.timeout(1.0)
            out.append(c.window_bandwidth())

        out = []
        sim.process(proc(sim, c, out))
        sim.run()
        assert out[0] == pytest.approx(500.0)
        assert out[1] == pytest.approx(0.0)

    def test_negative_bytes_rejected(self):
        sim = Simulator()
        c = ByteCounter(sim)
        with pytest.raises(ValueError):
            c.record(-1)

