"""Unit conventions and small helpers.

The library uses a single set of base units everywhere:

* time     -- seconds (float)
* energy   -- joules (float)
* power    -- watts (float)
* frequency-- MHz (int), matching NVML's SM-clock granularity
* work     -- FLOPs (float) and bytes (float)

:func:`ms` converts from milliseconds; :data:`TIME_EPS` is the tolerance
for comparing planned times (planned durations are accumulated in
``tau`` steps, so exact equality is unreliable).
"""

from __future__ import annotations

MILLISECONDS = 1e-3

#: Default absolute tolerance for comparing planned times (seconds). One
#: tenth of the default ``tau`` (1 ms) is far below any real scheduling
#: granularity while being far above float64 noise.
TIME_EPS = 1e-7


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * MILLISECONDS


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``.

    Raises ``ValueError`` if the interval is empty.
    """
    if low > high:
        raise ValueError(f"empty interval [{low}, {high}]")
    return max(low, min(high, value))
