"""The fleet simulator: many training jobs under one power envelope.

:class:`FleetSimulator` runs a :class:`~repro.fleet.jobs.FleetTrace`
through a discrete-event loop: jobs arrive, get admitted with their
(shared, memoized) characterized frontiers, and at every event the
configured allocation policy re-points each running job along its own
frontier so the fleet's aggregate draw respects the power cap in force.
Between events every job runs at a fixed
:class:`~repro.core.schedule.EnergySchedule`, so energy, carbon, cost
and cap-violation integrals are exact piecewise products -- no
numerical integration, and therefore bit-identical reports for a fixed
(trace, policy, cap) triple.

The output is a :class:`FleetReport`: per-job energy/time/deadline
accounting plus the fleet-level numbers the paper's discussion asks
about at datacenter scale -- total energy against the all-max-clock
counterfactual (fleet energy bloat), seconds spent above the cap, and
grid carbon/cost when intensity/price traces are supplied.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Dict, Optional, Sequence

from ..api.planner import Planner
from ..exceptions import ConfigurationError, SimulationError
from .events import (
    ARRIVAL,
    COMPLETION,
    STRAGGLER,
    TRACE,
    WAKE,
    Event,
    EventQueue,
)
from .jobs import FleetJob, FleetTrace, JobPlan, plan_trace
from .policy import AllocationContext, FleetPolicy, JobView, get_policy
from .power import (
    J_PER_KWH,
    OperatingPoint,
    TraceLike,
    aggregate_power_w,
    as_trace,
)

#: Remaining-work epsilon: a job whose outstanding wall-clock time at
#: current speed is below this is complete (absorbs float residue from
#: event-time arithmetic without ever dropping a whole iteration).
_DONE_EPS_S = 1e-9


@dataclass
class _ActiveJob:
    """Mutable simulator state of one admitted job."""

    job: FleetJob
    plan: JobPlan
    start_s: float
    remaining_iterations: float
    epoch: int = 0
    floor_time_s: Optional[float] = None
    point: Optional[OperatingPoint] = None
    energy_j: float = 0.0
    carbon_g: float = 0.0
    cost: float = 0.0
    end_s: Optional[float] = None

    def view(self) -> JobView:
        return JobView(
            job_id=self.job.job_id,
            options=self.plan.model.ladder(self.floor_time_s),
            num_gpus=self.plan.num_gpus,
            remaining_iterations=self.remaining_iterations,
            deadline_s=self.job.deadline_s,
        )


@dataclass(frozen=True)
class JobRecord:
    """Final accounting for one fleet job (one report row)."""

    job_id: str
    model: str
    gpus: str
    iterations: int
    arrival_s: float
    start_s: float
    end_s: float
    energy_j: float
    avg_power_w: float
    allmax_time_s: float
    allmax_energy_j: float
    deadline_s: Optional[float]
    deadline_missed: bool
    carbon_g: float = 0.0
    cost: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def slowdown_pct(self) -> float:
        return 100.0 * (self.duration_s / self.allmax_time_s - 1.0)

    @property
    def energy_vs_allmax_pct(self) -> float:
        return 100.0 * (1.0 - self.energy_j / self.allmax_energy_j)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "model": self.model,
            "gpus": self.gpus,
            "iterations": self.iterations,
            "arrival_s": self.arrival_s,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "energy_j": self.energy_j,
            "avg_power_w": self.avg_power_w,
            "allmax_time_s": self.allmax_time_s,
            "allmax_energy_j": self.allmax_energy_j,
            "slowdown_pct": self.slowdown_pct,
            "energy_vs_allmax_pct": self.energy_vs_allmax_pct,
            "deadline_s": self.deadline_s,
            "deadline_missed": self.deadline_missed,
            "carbon_g": self.carbon_g,
            "cost": self.cost,
        }


@dataclass(frozen=True)
class FleetReport:
    """One simulated fleet run, fully accounted.

    ``energy_bloat_pct`` is the fleet-level analogue of the paper's
    per-job bloat: how much *more* energy the all-max-clock
    counterfactual would have burned, as a fraction of what this run
    actually consumed (positive = the policy saved energy).
    ``aggregate_slowdown_pct`` weighs each job's completion-time
    inflation by its all-max runtime.
    """

    policy: str
    jobs: tuple
    fleet_energy_j: float
    allmax_energy_j: float
    cap_violation_s: float
    makespan_s: float
    carbon_g: float = 0.0
    cost: float = 0.0

    @property
    def deadline_misses(self) -> int:
        return sum(1 for r in self.jobs if r.deadline_missed)

    @property
    def energy_bloat_pct(self) -> float:
        return 100.0 * (self.allmax_energy_j / self.fleet_energy_j - 1.0)

    @property
    def energy_vs_allmax_pct(self) -> float:
        return 100.0 * (1.0 - self.fleet_energy_j / self.allmax_energy_j)

    @property
    def aggregate_slowdown_pct(self) -> float:
        actual = math.fsum(r.duration_s for r in self.jobs)
        reference = math.fsum(r.allmax_time_s for r in self.jobs)
        return 100.0 * (actual / reference - 1.0)

    def job(self, job_id: str) -> JobRecord:
        for record in self.jobs:
            if record.job_id == job_id:
                return record
        raise ConfigurationError(f"no record for job {job_id!r}")

    def to_dict(self) -> dict:
        return {
            "kind": "fleet_report",
            "policy": self.policy,
            "fleet_energy_j": self.fleet_energy_j,
            "allmax_energy_j": self.allmax_energy_j,
            "energy_vs_allmax_pct": self.energy_vs_allmax_pct,
            "energy_bloat_pct": self.energy_bloat_pct,
            "aggregate_slowdown_pct": self.aggregate_slowdown_pct,
            "cap_violation_s": self.cap_violation_s,
            "makespan_s": self.makespan_s,
            "carbon_g": self.carbon_g,
            "cost": self.cost,
            "deadline_misses": self.deadline_misses,
            "jobs": [r.to_dict() for r in self.jobs],
        }

    def to_json(self, fp: Optional[IO[str]] = None) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        if fp is not None:
            fp.write(text)
        return text


class FleetSimulator:
    """Discrete-event datacenter simulator with policy-driven capping.

    Args:
        trace: The arrival trace (jobs + straggler notifications).
        policy: Registered policy name or a :class:`FleetPolicy`.
        cap_w: Cluster power cap -- a constant (watts), a
            :class:`StepTrace`, or ``None`` for uncapped operation.
        carbon: Grid carbon intensity in gCO2/kWh (constant or trace);
            ``None`` disables carbon accounting.
        price: Energy price per kWh (constant or trace); ``None``
            disables cost accounting.
        planner: Shared :class:`~repro.api.Planner` (defaults to the
            process-wide one, so ``REPRO_CACHE_DIR`` persists fleet
            frontiers like every other entry point).
        plan_jobs: Worker processes for the up-front planning sweep
            over a persistent store (``None``/1, or no store = serial;
            results are bit-identical either way).
        observers: Callables invoked as ``observer(sim, now)`` after
            every event batch.  An observer with an ``attach(sim)``
            method is attached at run start; observers may call
            :meth:`set_straggler` / :meth:`schedule_wake` to drive the
            *running* simulation (drift scenario injection).
        record_timeline: When True, :meth:`run` appends one dict per
            notable moment to :attr:`timeline` -- job lifespans
            (``kind="job"`` with ``start_s``/``end_s``), arrivals,
            stragglers, re-points, cap/trace breakpoints and drift
            wakes (instants with ``t_s``).  The list feeds
            :func:`repro.obs.export.fleet_timeline_to_chrome`.
    """

    def __init__(
        self,
        trace: FleetTrace,
        policy: object = "waterfill",
        cap_w: TraceLike = None,
        carbon: TraceLike = None,
        price: TraceLike = None,
        planner: Optional[Planner] = None,
        plan_jobs: Optional[int] = None,
        observers: Optional[Sequence] = None,
        record_timeline: bool = False,
    ) -> None:
        self.trace = trace
        self.policy: FleetPolicy = (
            get_policy(policy) if isinstance(policy, str) else policy
        )
        if not callable(getattr(self.policy, "allocate", None)):
            raise ConfigurationError(
                "policy must be a registered name or define allocate(ctx)"
            )
        self.cap_trace = as_trace(cap_w, "cap_w")
        self.carbon_trace = as_trace(carbon, "carbon")
        self.price_trace = as_trace(price, "price")
        self._planner = planner
        self._plan_jobs = plan_jobs
        self.observers = tuple(observers or ())
        #: Online-notification counters (the CLI's ``--drift`` line):
        #: every ``set_straggler`` is a notification; the ones that
        #: re-pointed a *running* job count as replans.
        self.drift_stats: Dict[str, int] = {
            "notifications": 0, "replans": 0, "wakes": 0,
        }
        self.record_timeline = record_timeline
        #: Recorded run timeline (empty unless ``record_timeline``).
        self.timeline: list = []
        # Loop state, promoted to attributes so observers can reach a
        # *running* simulation through the public methods below.
        self._queue: Optional[EventQueue] = None
        self._plans: Optional[Dict] = None
        self._running: Dict[str, _ActiveJob] = {}
        self._records: Dict[str, JobRecord] = {}
        self._pending_stragglers: Dict[str, float] = {}
        self._now = 0.0
        self._dirty = False

    # -- online drift surface ------------------------------------------------
    @property
    def now_s(self) -> float:
        """Current simulated time (valid while :meth:`run` executes)."""
        return self._now

    def schedule_wake(self, at_s: float) -> None:
        """Ask the event loop to advance to ``at_s`` (observers only).

        Without a wake the loop would jump straight between organic
        events and an observer's boundary in the gap would be applied
        late.  Wakes never travel into the past.
        """
        if self._queue is None:
            raise SimulationError(
                "schedule_wake needs a running simulation"
            )
        self._queue.push(Event(time_s=max(at_s, self._now), kind=WAKE))

    def set_straggler(self, job_id: str, degree: float) -> None:
        """Table 2 notification delivered to the *running* simulation.

        Exactly the semantics of a trace-baked
        :class:`~repro.fleet.jobs.StragglerEvent` at the current
        instant: a running job's floor moves (and the fleet re-points
        at this timestamp); a not-yet-arrived job's floor is held and
        applied on admission; a completed job's notification is a
        no-op.  ``degree`` 1.0 clears the floor.
        """
        if degree < 1.0:
            raise SimulationError("straggler degree must be >= 1.0")
        if self._plans is None:
            raise SimulationError(
                "set_straggler needs a running simulation"
            )
        self.trace.job(job_id)  # raises for unknown ids
        self.drift_stats["notifications"] += 1
        self._mark("straggler", t_s=self._now, job=job_id, degree=degree)
        if self._apply_straggler(job_id, degree):
            self.drift_stats["replans"] += 1
            self._dirty = True

    def _mark(self, kind: str, **fields) -> None:
        """Append one timeline entry (no-op unless recording)."""
        if self.record_timeline:
            self.timeline.append({"kind": kind, **fields})

    def _apply_straggler(self, job_id: str, degree: float) -> bool:
        """Move one job's floor; True if a *running* job was touched."""
        plan = self._plans[self.trace.job(job_id).plan_spec]
        floor = (None if degree <= 1.0
                 else degree * plan.model.t_min)
        state = self._running.get(job_id)
        if state is not None:
            state.floor_time_s = floor
            return True
        if job_id not in self._records:
            # Straggler fired before arrival: apply on admit
            # (a degree-1.0 notification clears any pending).
            if floor is None:
                self._pending_stragglers.pop(job_id, None)
            else:
                self._pending_stragglers[job_id] = floor
        return False

    # -- accounting ----------------------------------------------------------
    def _accrue(self, running: Dict[str, _ActiveJob], t0: float,
                t1: float) -> Dict[str, float]:
        """Integrate one constant-power interval ``[t0, t1)``.

        Returns the totals accrued (violation seconds and fleet
        energy); per-job energy/carbon/cost land on the jobs.  Rates
        are sampled at ``t0`` -- traces are right-continuous and every
        breakpoint is an event, so the value holds over the interval.
        """
        dt = t1 - t0
        totals = {"violation_s": 0.0, "energy_j": 0.0}
        if dt <= 0 or not running:
            return totals
        intensity = (self.carbon_trace.value_at(t0)
                     if self.carbon_trace else 0.0)
        rate = self.price_trace.value_at(t0) if self.price_trace else 0.0
        for state in running.values():
            point = state.point
            if point is None:
                raise SimulationError(
                    f"running job {state.job.job_id!r} has no operating "
                    f"point"
                )
            energy = point.power_w * dt
            state.remaining_iterations -= dt / point.iteration_time_s
            state.energy_j += energy
            state.carbon_g += energy / J_PER_KWH * intensity
            state.cost += energy / J_PER_KWH * rate
            totals["energy_j"] += energy
        if self.cap_trace is not None:
            draw = aggregate_power_w(
                [s.point for s in running.values()]
            )
            if draw > self.cap_trace.value_at(t0) + 1e-6:
                totals["violation_s"] = dt
        return totals

    def _reallocate(self, running: Dict[str, _ActiveJob], now: float,
                    queue: EventQueue) -> None:
        """Run the policy and re-point every running job (new epochs)."""
        if not running:
            return
        views = tuple(state.view() for state in running.values())
        cap = (self.cap_trace.value_at(now)
               if self.cap_trace is not None else None)
        ctx = AllocationContext(jobs=views, cap_w=cap, time_s=now)
        allocation = self.policy.allocate(ctx)
        self._mark("replan", t_s=now, jobs=len(views))
        for view in views:
            state = running[view.job_id]
            pos = allocation.get(view.job_id, 0)
            if not 0 <= pos < len(view.options):
                raise SimulationError(
                    f"policy {self.policy.name!r} chose option {pos} of "
                    f"{len(view.options)} for job {view.job_id!r}"
                )
            state.point = view.options[pos]
            state.epoch += 1
            finish = now + state.remaining_iterations * \
                state.point.iteration_time_s
            queue.push(Event(
                time_s=max(finish, now), kind=COMPLETION,
                job_id=view.job_id, epoch=state.epoch,
            ))

    # -- the event loop ------------------------------------------------------
    def run(self) -> FleetReport:
        self._plans = plan_trace(self.trace, planner=self._planner,
                                 jobs=self._plan_jobs)
        queue = EventQueue()
        self._queue = queue
        for job in self.trace.jobs:
            queue.push(Event(time_s=job.arrival_s, kind=ARRIVAL,
                             job_id=job.job_id))
        for event in self.trace.events:
            queue.push(Event(time_s=event.time_s, kind=STRAGGLER,
                             job_id=event.job_id, degree=event.degree))
        for trace in (self.cap_trace, self.carbon_trace, self.price_trace):
            if trace is not None:
                for bp in trace.breakpoints_after(0.0):
                    queue.push(Event(time_s=bp, kind=TRACE))

        running = self._running = {}
        records = self._records = {}
        self._pending_stragglers = {}
        self._now = 0.0
        self._dirty = False
        self.timeline = []
        violation_s = 0.0
        fleet_energy = 0.0
        for observer in self.observers:
            attach = getattr(observer, "attach", None)
            if attach is not None:
                attach(self)

        while queue:
            batch = queue.pop_batch()
            when = batch[0].time_s
            accrued = self._accrue(running, self._now, when)
            violation_s += accrued["violation_s"]
            fleet_energy += accrued["energy_j"]
            self._now = now = when

            dirty = False
            for event in batch:
                if event.kind == ARRIVAL:
                    job = self.trace.job(event.job_id)
                    state = _ActiveJob(
                        job=job,
                        plan=self._plans[job.plan_spec],
                        start_s=now,
                        remaining_iterations=float(job.iterations),
                    )
                    floor = self._pending_stragglers.pop(job.job_id, None)
                    if floor is not None:
                        state.floor_time_s = floor
                    running[job.job_id] = state
                    self._mark("arrival", t_s=now, job=job.job_id)
                    dirty = True
                elif event.kind == STRAGGLER:
                    self._mark("straggler", t_s=now, job=event.job_id,
                               degree=event.degree)
                    if self._apply_straggler(event.job_id, event.degree):
                        dirty = True
                elif event.kind == COMPLETION:
                    state = running.get(event.job_id)
                    if state is None or state.epoch != event.epoch:
                        continue  # stale: the job was re-pointed
                    point = state.point
                    residue = state.remaining_iterations * \
                        point.iteration_time_s
                    if residue > _DONE_EPS_S:
                        raise SimulationError(
                            f"completion fired {residue:.3g}s early for "
                            f"{event.job_id!r}"
                        )
                    state.remaining_iterations = 0.0
                    state.end_s = now
                    records[event.job_id] = self._record(state)
                    self._mark("job", job=event.job_id,
                               start_s=state.start_s, end_s=now)
                    del running[event.job_id]
                    dirty = True
                elif event.kind == TRACE:
                    self._mark("cap", t_s=now)
                    dirty = True
                elif event.kind == WAKE:
                    self.drift_stats["wakes"] += 1
                    self._mark("wake", t_s=now)
            # Observers see the post-batch state at this instant; a
            # set_straggler they issue lands in the same reallocation
            # a trace-baked event at this timestamp would have joined.
            for observer in self.observers:
                observer(self, now)
            if dirty or self._dirty:
                self._reallocate(running, now, queue)
                self._dirty = False

        self._queue = None
        if running:
            raise SimulationError(
                f"event queue drained with {sorted(running)} still running"
            )
        ordered = tuple(
            records[job.job_id] for job in self.trace.jobs
            if job.job_id in records
        )
        return FleetReport(
            policy=self.policy.name,
            jobs=ordered,
            fleet_energy_j=fleet_energy,
            allmax_energy_j=math.fsum(r.allmax_energy_j for r in ordered),
            cap_violation_s=violation_s,
            # The last *completion*, not the last event: trace
            # breakpoints scheduled beyond the fleet's lifetime (a 24 h
            # carbon curve on a 1 h run) must not stretch the makespan.
            makespan_s=max(r.end_s for r in ordered),
            carbon_g=math.fsum(r.carbon_g for r in ordered),
            cost=math.fsum(r.cost for r in ordered),
        )

    def _record(self, state: _ActiveJob) -> JobRecord:
        """Close one job's books (the all-max counterfactual included)."""
        fastest = state.plan.model.point(0)
        iters = state.job.iterations
        duration = state.end_s - state.start_s
        deadline = state.job.deadline_s
        return JobRecord(
            job_id=state.job.job_id,
            model=state.job.spec.model,
            gpus=",".join(state.plan.gpu_names),
            iterations=iters,
            arrival_s=state.job.arrival_s,
            start_s=state.start_s,
            end_s=state.end_s,
            energy_j=state.energy_j,
            avg_power_w=state.energy_j / duration if duration > 0
            else fastest.power_w,
            allmax_time_s=iters * fastest.iteration_time_s,
            allmax_energy_j=iters * fastest.energy_j,
            deadline_s=deadline,
            deadline_missed=(deadline is not None and state.end_s > deadline),
            carbon_g=state.carbon_g,
            cost=state.cost,
        )


def simulate(
    trace: FleetTrace,
    policy: object = "waterfill",
    cap_w: TraceLike = None,
    **kwargs,
) -> FleetReport:
    """One-call fleet simulation (see :class:`FleetSimulator`)."""
    return FleetSimulator(trace, policy=policy, cap_w=cap_w, **kwargs).run()
