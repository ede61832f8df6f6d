"""Frequency-dependent GPU power model.

The model is deliberately simple but captures the two facts Perseus exploits:

1. Dynamic power falls super-linearly with the SM clock
   (``P ~ f^gamma``, gamma > 1, from V-f scaling), while
2. computation latency grows at most linearly as the clock drops (and
   sub-linearly for memory-bound work),

so each computation has a convex time-energy tradeoff with an *interior*
minimum-energy frequency (paper footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError
from .specs import GPUSpec


@dataclass(frozen=True)
class PowerModel:
    """Computes board power for a device at a given clock and utilization.

    ``P(f, u) = floor + (tdp - floor) * u * (f / f_max) ** gamma``

    ``floor`` is the active-load power at the voltage floor (well above
    true idle -- the chip is still fully busy, just slowly clocked).  ``u``
    (0..1] scales the dynamic term and lets different computation types
    (e.g., memory-heavy embedding lookups vs. dense GEMMs) draw different
    power at the same clock.
    """

    spec: GPUSpec

    def compute_power(self, freq_mhz: int, utilization: float = 1.0) -> float:
        """Board power (watts) while actively computing."""
        if not 0.0 < utilization <= 1.0:
            raise ConfigurationError(f"utilization {utilization} not in (0, 1]")
        freq_mhz = self.spec.freq.clamp(freq_mhz)
        x = freq_mhz / self.spec.max_freq
        floor = self.spec.active_floor_w
        dynamic = (self.spec.tdp_w - floor) * utilization
        return floor + dynamic * x**self.spec.power_exponent
