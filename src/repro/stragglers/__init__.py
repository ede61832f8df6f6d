"""Straggler models: thermal throttling, I/O stalls, mixed hardware."""

from .injection import (
    HeterogeneousPipeline,
    IOBottleneck,
    SlowGPUType,
    ThermalThrottle,
    stepped_ramp,
)

__all__ = [
    "HeterogeneousPipeline",
    "IOBottleneck",
    "SlowGPUType",
    "ThermalThrottle",
    "stepped_ramp",
]
