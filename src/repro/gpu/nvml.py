"""Simulated NVML (NVIDIA Management Library).

The Perseus client locks SM clocks and reads power/energy counters through
NVML.  This module provides an in-process stand-in driven by *simulated
time*: the training engine tells each device when activity happens and at
what power, and NVML-side queries integrate those records.

Fidelity notes (matching the paper's assumptions, §3.1 footnote 3 and §5):

* Locking a clock takes ~10 ms to apply -- requests are timestamped and only
  take effect after :attr:`clock_apply_latency_s`.
* With a locked clock, computation latency is deterministic; the energy
  counter is an exact integral of recorded power over simulated time, plus
  idle power for intervals with no recorded activity.  The training engine
  records a stage's pipeline bubbles at ``P_blocking`` (the stage spins in
  NCCL, as Eq. 3 charges it), so only time outside any iteration reads as
  idle.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Tuple

from ..exceptions import NVMLError
from ..units import TIME_EPS
from .specs import GPUSpec


@dataclass
class _ActivitySegment:
    start: float
    end: float
    power_w: float


@dataclass
class SimDevice:
    """One simulated GPU: clock request log + activity (power) log.

    Reads bisect these logs, so a counter read late in a long run costs
    what one early in it does: ``_clock_times`` parallels
    ``_clock_events``, and two monotone envelopes of the segment log
    bound the segments that can overlap a queried interval.
    """

    index: int
    spec: GPUSpec
    clock_apply_latency_s: float = 0.010
    _clock_events: List[Tuple[float, int]] = field(default_factory=list)
    _segments: List[_ActivitySegment] = field(default_factory=list)
    _clock_times: List[float] = field(default_factory=list, repr=False)
    #: ``_end_max[k]``: the latest end among segments ``0..k``.
    _end_max: List[float] = field(default_factory=list, repr=False)
    #: ``_start_min[k]``: the earliest start among segments ``k..``.
    _start_min: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        # Device boots at the maximum clock (default autoboost behaviour).
        self._clock_event(float("-inf"), self.spec.max_freq)

    def _clock_event(self, apply_at: float, freq_mhz: int) -> None:
        self._clock_events.append((apply_at, freq_mhz))
        self._clock_times.append(apply_at)

    # -- clock control -----------------------------------------------------
    def lock_sm_clock(self, freq_mhz: int, now: float) -> None:
        """Request an SM clock lock; takes effect after the apply latency."""
        if freq_mhz not in self.spec.freq:
            raise NVMLError(
                f"{self.spec.name}: {freq_mhz} MHz is not a supported SM clock"
            )
        apply_at = now + self.clock_apply_latency_s
        if self._clock_events and apply_at < self._clock_events[-1][0] - TIME_EPS:
            raise NVMLError("clock requests must be issued in time order")
        self._clock_event(apply_at, freq_mhz)

    def reset_sm_clock(self, now: float) -> None:
        """Return to the default (maximum) clock."""
        self._clock_event(now + self.clock_apply_latency_s, self.spec.max_freq)

    def sm_clock(self, now: float) -> int:
        """Effective SM clock at simulated time ``now``."""
        i = bisect.bisect_right(self._clock_times, now) - 1
        if i < 0:
            return self.spec.max_freq
        return self._clock_events[i][1]

    # -- activity / power --------------------------------------------------
    def record_activity(self, start: float, end: float, power_w: float) -> None:
        """Record that the device drew ``power_w`` over ``[start, end]``.

        Segments must be appended in non-overlapping time order (a GPU runs
        one kernel stream in our pipeline engine).
        """
        if end < start - TIME_EPS:
            raise NVMLError(f"segment end {end} before start {start}")
        if self._segments and start < self._segments[-1].end - TIME_EPS:
            raise NVMLError("activity segments must not overlap")
        if power_w < 0:
            raise NVMLError("power must be non-negative")
        self._segments.append(_ActivitySegment(start, end, power_w))
        ends, starts = self._end_max, self._start_min
        ends.append(max(ends[-1], end) if ends else end)
        # Segments may touch within TIME_EPS, so a start can undercut
        # earlier ones: lower their suffix minimum back to it.
        starts.append(start)
        k = len(starts) - 2
        while k >= 0 and starts[k] > start:
            starts[k] = start
            k -= 1

    def energy_counter(self, now: float, since: float = 0.0) -> float:
        """Total joules consumed over ``[since, now]``.

        Active intervals integrate their recorded power; uncovered intervals
        integrate idle power -- mirroring ``nvmlDeviceGetTotalEnergyConsumption``.
        Only segments past every one that ends by ``since`` and before
        every one that starts at ``now`` or later are visited; the ones
        skipped cannot overlap ``[since, now]``, so the sum adds exactly
        what a scan of every segment adds, in the same order.
        """
        if now < since:
            raise NVMLError("energy query interval is reversed")
        first = bisect.bisect_right(self._end_max, since)
        stop = bisect.bisect_left(self._start_min, now)
        energy = 0.0
        covered = 0.0
        for seg in self._segments[first:stop]:
            lo = max(seg.start, since)
            hi = min(seg.end, now)
            if hi > lo:
                energy += seg.power_w * (hi - lo)
                covered += hi - lo
        energy += self.spec.idle_w * max(0.0, (now - since) - covered)
        return energy


class SimulatedNVML:
    """A host's view over a set of simulated devices."""

    def __init__(
        self,
        spec: GPUSpec,
        num_devices: int,
        clock_apply_latency_s: float = 0.010,
    ):
        if num_devices <= 0:
            raise NVMLError("need at least one device")
        self.spec = spec
        self.devices = [
            SimDevice(i, spec, clock_apply_latency_s) for i in range(num_devices)
        ]

    def device(self, index: int) -> SimDevice:
        if not 0 <= index < len(self.devices):
            raise NVMLError(f"bad device index {index}")
        return self.devices[index]
