"""Top-level Perseus optimizer: DAG + profile -> frontier + lookups.

This is the server-side computation of §3.2 steps 2-3: characterize the
frontier once, then answer straggler lookups instantly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..pipeline.dag import ComputationDag
from ..profiler.measurement import PipelineProfile
from .frontier import DEFAULT_TAU, Frontier, characterize_frontier
from .schedule import EnergySchedule
from .unified import select_schedule


@dataclass
class PerseusOptimizer:
    """Pre-characterizes a pipeline's frontier and serves schedule lookups."""

    dag: ComputationDag
    profile: PipelineProfile
    tau: float = DEFAULT_TAU
    #: ``"exact"`` (bit-identical to the reference crawl) or ``"fast"``
    #: (warm-started min-cuts + series-parallel contraction, within
    #: tolerance of exact).
    exactness: str = "exact"
    #: Wraps the crawl, ``memo(crawl) -> Frontier``: the planner passes
    #: ``Planner.frontier_at`` bound to this optimizer's key, so a cached
    #: frontier is adopted and a crawled one is counted and filed there.
    memo: Callable[[Callable[[], Frontier]], Frontier] = field(
        default=lambda crawl: crawl(), repr=False, compare=False
    )
    _frontier: Optional[Frontier] = field(default=None, init=False)
    #: Serializes lazy characterization: concurrent forcers (e.g. two
    #: non-blocking server registrations sharing a memoized optimizer)
    #: run the expensive crawl once, not once each.
    _char_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def is_characterized(self) -> bool:
        """Whether the frontier has materialized (it is lazy)."""
        return self._frontier is not None

    @property
    def frontier(self) -> Frontier:
        """The characterized frontier (computed lazily, cached)."""
        if self._frontier is None:
            self.characterize()
        return self._frontier

    def characterize(self) -> bool:
        """Materialize the frontier; whether *this call* ran the crawl
        (``False`` if it was already here or ``memo`` had it cached)."""
        crawled = []

        def crawl() -> Frontier:
            crawled.append(True)
            return characterize_frontier(self.dag, self.profile,
                                         tau=self.tau,
                                         exactness=self.exactness)

        with self._char_lock:
            if self._frontier is None:
                self._frontier = self.memo(crawl)
        return bool(crawled)

    def schedule_for_straggler(
        self, straggler_time: Optional[float] = None
    ) -> EnergySchedule:
        """Energy schedule for ``T_opt = min(T*, T')`` (Eq. 2)."""
        return select_schedule(self.frontier, straggler_time)
