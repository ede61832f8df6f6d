"""Straggler models (§2.3): thermal-throttle degrees and the T' floor."""

import pytest

from repro.core.unified import straggler_floor
from repro.exceptions import ConfigurationError, SimulationError
from repro.stragglers.injection import ThermalThrottle


class TestThermalThrottle:
    def test_degree_matches_slowdown(self):
        assert ThermalThrottle(slowdown=1.2).degree == pytest.approx(1.2)

    def test_rejects_speedup(self):
        with pytest.raises(SimulationError):
            ThermalThrottle(slowdown=0.9)


class TestPrescription:
    def test_t_prime(self):
        assert straggler_floor(10.0, 1.2) == pytest.approx(12.0)

    def test_rejects_fast_straggler(self):
        with pytest.raises(ConfigurationError):
            straggler_floor(10.0, 0.5)
