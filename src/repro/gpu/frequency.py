"""Discrete GPU SM-frequency tables.

NVIDIA GPUs expose a discrete ladder of lockable SM clocks (typically in
15 MHz steps).  Perseus's planner chooses one frequency per computation, and
the conversion from planned durations back to clocks ("the slowest frequency
that runs no slower than planned", Algorithm 2 line 8) needs fast
nearest-step lookups, which this module provides.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class FrequencyTable:
    """An ordered ladder of supported SM frequencies in MHz.

    Frequencies are stored ascending.  The table behaves like an immutable
    sequence and offers clamping / snapping helpers.
    """

    frequencies: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        freqs = tuple(sorted(set(int(f) for f in self.frequencies)))
        if not freqs:
            raise ConfigurationError("frequency table must not be empty")
        if freqs[0] <= 0:
            raise ConfigurationError("frequencies must be positive MHz values")
        object.__setattr__(self, "frequencies", freqs)

    @classmethod
    def from_range(cls, low: int, high: int, step: int = 15) -> "FrequencyTable":
        """Build a table covering ``[low, high]`` in ``step`` MHz increments.

        ``high`` is always included even if it is not a multiple of ``step``
        away from ``low`` (real GPUs pin their max boost clock).
        """
        if low > high:
            raise ConfigurationError(f"low {low} > high {high}")
        if step <= 0:
            raise ConfigurationError("step must be positive")
        freqs = list(range(low, high + 1, step))
        if freqs[-1] != high:
            freqs.append(high)
        return cls(tuple(freqs))

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.frequencies)

    def __iter__(self) -> Iterator[int]:
        return iter(self.frequencies)

    def __getitem__(self, idx: int) -> int:
        return self.frequencies[idx]

    def __contains__(self, freq: object) -> bool:
        if not isinstance(freq, int):
            return False
        i = bisect.bisect_left(self.frequencies, freq)
        return i < len(self.frequencies) and self.frequencies[i] == freq

    # -- lookups -----------------------------------------------------------
    @property
    def min(self) -> int:
        """Lowest supported frequency (MHz)."""
        return self.frequencies[0]

    @property
    def max(self) -> int:
        """Highest supported frequency (MHz)."""
        return self.frequencies[-1]

    def clamp(self, freq: int) -> int:
        """Clamp ``freq`` into the supported range (not snapped to a step)."""
        return max(self.min, min(self.max, freq))

    def descending(self) -> List[int]:
        """Frequencies from highest to lowest (profiling sweep order, §5)."""
        return list(reversed(self.frequencies))

    def index(self, freq: int) -> int:
        """Index of an exact frequency; raises ``ValueError`` if absent."""
        i = bisect.bisect_left(self.frequencies, freq)
        if i < len(self.frequencies) and self.frequencies[i] == freq:
            return i
        raise ValueError(f"{freq} MHz not in frequency table")

    def subsample(self, stride: int) -> "FrequencyTable":
        """Coarser table keeping every ``stride``-th entry plus both ends.

        Used by tests and fast benchmark paths to shrink sweeps without
        changing the endpoints that bound the time-energy frontier.
        """
        if stride <= 0:
            raise ConfigurationError("stride must be positive")
        kept: Sequence[int] = self.frequencies[::stride]
        freqs = set(kept)
        freqs.add(self.min)
        freqs.add(self.max)
        return FrequencyTable(tuple(sorted(freqs)))
