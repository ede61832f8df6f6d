"""Straggler models: thermal throttling and mixed hardware."""

from .injection import SlowGPUType, ThermalThrottle, stepped_ramp

__all__ = ["SlowGPUType", "ThermalThrottle", "stepped_ramp"]
