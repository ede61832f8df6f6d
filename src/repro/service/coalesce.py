"""Request coalescing: single-flight de-duplication of expensive plans.

The planner memoizes every stage of its pipeline, but memoization only
helps *serially*: two concurrent requests that both miss the cache both
run the expensive build.  A multi-tenant daemon sees exactly that shape
-- N training jobs registering overlapping specs within the same few
seconds -- so the daemon funnels every expensive materialization
through a :class:`SingleFlight` keyed on the spec's canonical stack
identity (:func:`~repro.api.planner.stack_key`, the one resolver the
planner's own memo keys and sweep grouping read, hashed with the same
:func:`~repro.core.store.stable_key` the plan store addresses entries
by).  Spellings of one stack -- a model alias or another case, a GPU
alias, a homogeneous per-stage GPU list, an explicit default microbatch
size -- therefore share one flight.  One leader runs the profile; every
concurrent duplicate waits on the leader's event and adopts the warmed
planner state, so one profile/crawl run feeds many tenants.

The flight key deliberately excludes ``strategy``, ``microbatches`` and
``tau``: those only affect the cheap DAG/strategy passes (and the
frontier crawl, which the memoized
:class:`~repro.core.optimizer.PerseusOptimizer` already serializes on
its own characterization lock), so requests differing only there still
share one flight -- exactly the sharing the planner's staged caches
give serial callers.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Tuple

from ..api.planner import stack_key
from ..api.spec import PlanSpec
from ..core.store import stable_key
from ..obs.trace import span as obs_span

#: ``SingleFlight.do`` roles: the caller that executed the build, or a
#: concurrent duplicate that waited for it.
LEADER = "leader"
FOLLOWER = "follower"


def stack_flight_key(spec: PlanSpec) -> str:
    """Content hash of the spec's expensive (profile-determining) stack.

    The planner's :func:`~repro.api.planner.stack_key`, hashed with the
    plan store's :func:`stable_key`, so two specs share a flight exactly
    when they share a stack.  Raises the planner's
    :class:`~repro.exceptions.ConfigurationError` for a spec naming an
    unknown model or GPU.
    """
    return stable_key(("stack_flight",) + stack_key(spec))


class _Flight:
    __slots__ = ("done", "value", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException = None
        self.followers = 0


class SingleFlight:
    """De-duplicate concurrent calls that share a key.

    ``do(key, fn)`` runs ``fn`` exactly once per key among concurrent
    callers: the first becomes the leader, everyone arriving before the
    leader finishes waits and shares the leader's result (or its
    exception).  Once a flight lands the key is forgotten -- later
    calls start a new flight; persistent de-duplication is the cache
    backend's job, not this class's.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[Any, _Flight] = {}
        self.stats: Dict[str, int] = {"leaders": 0, "followers": 0}

    def do(self, key, fn: Callable[[], Any]) -> Tuple[Any, str]:
        """Returns ``(result, role)`` with role LEADER or FOLLOWER."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                lead = True
                self.stats["leaders"] += 1
            else:
                lead = False
                flight.followers += 1
                self.stats["followers"] += 1
        if lead:
            try:
                with obs_span("service.flight", role=LEADER):
                    flight.value = fn()
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.done.set()
            return flight.value, LEADER
        flight.done.wait()
        if flight.error is not None:
            # Followers asked for the same work; they get the same
            # verdict (the traceback context names the leader's error).
            try:
                clone = type(flight.error)(str(flight.error))
            except Exception:  # exotic constructor signature
                from ..exceptions import ServiceError

                clone = ServiceError(str(flight.error))
            raise clone from flight.error
        return flight.value, FOLLOWER

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._flights)
