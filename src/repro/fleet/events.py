"""Heap-based discrete-event core of the fleet simulator.

The fleet simulator advances time only at *events* -- job arrivals,
job completions, power-cap / carbon-trace breakpoints, straggler
notifications -- because between two consecutive events every running
job draws constant power (its deployed :class:`~repro.core.schedule.
EnergySchedule` pins its iteration time and energy), so all integrals
(energy, carbon, cap-violation seconds) are exact piecewise products.

:class:`EventQueue` is a plain ``heapq`` min-heap ordered by
``(time, sequence)``: the monotonically increasing sequence number
makes same-timestamp pops FIFO in *push* order, which is what keeps a
fleet run bit-identical across repeats (nothing ever compares two
payloads, so float-equal timestamps cannot introduce nondeterminism).

Completion events are *lazily invalidated*: every reallocation bumps
the owning job's epoch, and a popped completion whose epoch is stale
(the job was re-pointed to a different frontier schedule, changing its
finish time) is simply discarded -- the standard DES alternative to
deleting from the middle of a heap.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from ..exceptions import SimulationError

#: Event kinds, in no particular priority -- same-time events are
#: processed FIFO and the simulator reallocates once per timestamp
#: batch, so ordering within a batch never changes the outcome.
ARRIVAL = "arrival"
COMPLETION = "completion"
TRACE = "trace"  # a cap/carbon/price trace breakpoint (resample point)
STRAGGLER = "straggler"
#: An observer-requested wake-up: advances the loop to a chosen instant
#: so online drivers (e.g. :class:`repro.drift.ScenarioDriver`) can
#: inject ``set_straggler`` notifications into a *running* simulation.
WAKE = "wake"


@dataclass(frozen=True)
class Event:
    """One scheduled fleet event.

    ``job_id`` names the affected job (``None`` for trace breakpoints);
    ``epoch`` guards completions against stale speed assumptions;
    ``degree`` carries a straggler's anticipated slowdown factor
    (>= 1.0, with 1.0 meaning "back to normal", as in
    :meth:`repro.runtime.server.PerseusServer.set_straggler`).
    """

    time_s: float
    kind: str
    job_id: Optional[str] = None
    epoch: int = 0
    degree: float = 1.0

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise SimulationError(
                f"event time must be non-negative, got {self.time_s}"
            )
        if self.kind not in (ARRIVAL, COMPLETION, TRACE, STRAGGLER, WAKE):
            raise SimulationError(f"unknown event kind {self.kind!r}")


@dataclass
class EventQueue:
    """Deterministic min-heap of :class:`Event` (time, then FIFO)."""

    _heap: List[tuple] = field(default_factory=list)
    _seq: "itertools.count" = field(default_factory=itertools.count)

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time_s, next(self._seq), event))

    def pop(self) -> Event:
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def pop_batch(self) -> List[Event]:
        """Pop every event sharing the earliest timestamp (push order).

        The simulator handles a whole timestamp batch before it
        reallocates, so e.g. two jobs arriving together are admitted
        under one policy decision instead of two order-dependent ones.
        """
        batch = [self.pop()]
        when = batch[0].time_s
        while self._heap and self._heap[0][0] == when:
            batch.append(self.pop())
        return batch

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
