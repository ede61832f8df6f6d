"""Straggler models (§2.3): throttling, I/O, heterogeneous pipelines."""

import pytest

from repro.core.unified import straggler_floor
from repro.exceptions import ConfigurationError, SimulationError
from repro.stragglers.injection import (
    HeterogeneousPipeline,
    IOBottleneck,
    ThermalThrottle,
)


class TestThermalThrottle:
    def test_stretches_durations(self):
        throttle = ThermalThrottle(slowdown=1.3)
        out = throttle.distort_durations({0: 1.0, 1: 2.0})
        assert out == {0: pytest.approx(1.3), 1: pytest.approx(2.6)}

    def test_power_scales_inverse(self):
        throttle = ThermalThrottle(slowdown=2.0)
        out = throttle.distort_powers({0: 200.0})
        assert out[0] == pytest.approx(100.0)  # energy per comp preserved

    def test_degree_matches_slowdown(self):
        assert ThermalThrottle(slowdown=1.2).degree == pytest.approx(1.2)

    def test_rejects_speedup(self):
        with pytest.raises(SimulationError):
            ThermalThrottle(slowdown=0.9)


class TestIOBottleneck:
    def test_stalls_iteration(self):
        io = IOBottleneck(stall_factor=4.0)  # paper: up to 4x [54, 83, 89]
        assert io.stalled_iteration_time(2.0) == pytest.approx(8.0)
        assert io.degree == pytest.approx(4.0)

    def test_rejects_negative_stall(self):
        with pytest.raises(SimulationError):
            IOBottleneck(stall_factor=0.5)


class TestHeterogeneous:
    def test_uniform_slowdown(self):
        het = HeterogeneousPipeline(capacity_ratio=8 / 7)
        out = het.distort_durations({0: 7.0})
        assert out[0] == pytest.approx(8.0)

    def test_rejects_bad_ratio(self):
        with pytest.raises(SimulationError):
            HeterogeneousPipeline(capacity_ratio=0.8)


class TestPrescription:
    def test_t_prime(self):
        assert straggler_floor(10.0, 1.2) == pytest.approx(12.0)

    def test_rejects_fast_straggler(self):
        with pytest.raises(ConfigurationError):
            straggler_floor(10.0, 0.5)
