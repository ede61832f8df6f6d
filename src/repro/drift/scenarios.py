"""Fault-injection scenarios and the analytic closed-loop simulator.

A :class:`DriftScenario` is a piecewise-constant description of how
the infrastructure misbehaves: each :class:`DriftPhase` fixes a
slowdown ``degree`` (Table 2 semantics -- achievable iteration time
floors at ``degree * T_min``) and an ``energy_factor`` (realized
energy scales by it, e.g. a thermally-throttled part drawing extra
power per op) from its start time until the next phase.  ``restarts``
lists checkpoint/restart instants: the runtime comes back on its
*default* plan and must re-adopt the held decision.

One scenario drives three harnesses:

* :func:`simulate_scenario` -- the analytic per-iteration simulator
  behind ``benchmarks/bench_drift.py``.  Realized behavior follows
  the straggler floor model exactly (time ``max(T_sched, d*T_min)``,
  energy ``Eq. 3`` at the realized time, scaled by the phase's energy
  factor), so hold / closed-loop / oracle comparisons are exact and
  deterministic.
* :class:`ScenarioDriver` -- an observer for a *running*
  :class:`~repro.fleet.simulator.FleetSimulator`: it wakes the event
  loop at each phase boundary and applies ``set_straggler``
  notifications online (equivalent, by construction, to baking the
  same events into the trace -- a property the tests assert).
* Chaos tests -- the same phases, with the re-plan path made to
  fail/timeout, exercise the degradation contract.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.unified import straggler_floor
from ..exceptions import ConfigurationError
from .controller import (
    REASON_PROBE,
    DriftController,
    DriftPolicy,
    ReplanProposal,
)

#: Tolerance for "this boundary is due" comparisons on simulated time.
_TIME_EPS = 1e-9


@dataclass(frozen=True)
class DriftPhase:
    """One constant-fault interval of a scenario."""

    start_s: float
    degree: float = 1.0
    energy_factor: float = 1.0
    #: Whether the infrastructure announces this phase (a Table 2
    #: ``set_straggler`` arrives); unannounced phases must be caught
    #: by measurement-driven detection.
    announced: bool = False

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError("phase start must be >= 0")
        if self.degree < 1.0:
            raise ConfigurationError("phase degree must be >= 1.0")
        if self.energy_factor <= 0:
            raise ConfigurationError("phase energy factor must be > 0")


@dataclass(frozen=True)
class DriftScenario:
    """A named fault timeline (phases sorted by start time)."""

    name: str
    phases: Tuple[DriftPhase, ...]
    restarts: Tuple[float, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.phases, list):
            object.__setattr__(self, "phases", tuple(self.phases))
        if isinstance(self.restarts, list):
            object.__setattr__(self, "restarts", tuple(self.restarts))
        if not self.phases:
            raise ConfigurationError("a scenario needs at least one phase")
        starts = [p.start_s for p in self.phases]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ConfigurationError(
                "scenario phases must have strictly increasing starts"
            )
        if any(t < 0 for t in self.restarts):
            raise ConfigurationError("restart times must be >= 0")

    # -- lookups -------------------------------------------------------------
    def phase_at(self, t: float) -> DriftPhase:
        """The phase in force at time ``t`` (baseline before the first)."""
        idx = bisect_right([p.start_s for p in self.phases],
                           t + _TIME_EPS) - 1
        if idx < 0:
            return DriftPhase(start_s=0.0)
        return self.phases[idx]

    def degree_at(self, t: float) -> float:
        return self.phase_at(t).degree

    def boundaries(self) -> List[float]:
        """Every instant the fault state changes (phases + restarts)."""
        times = {p.start_s for p in self.phases} | set(self.restarts)
        return sorted(times)

    def to_events(self, job_id: str, start_s: float = 0.0) -> list:
        """The scenario as trace-bakeable ``StragglerEvent`` rows.

        Used both to drive fleets from static traces and to assert the
        online/offline equivalence (a :class:`ScenarioDriver` applied
        to a running simulation must reproduce the report a trace with
        these events produces).  Energy factors do not survive the
        translation -- the fleet model prices time floors only.
        """
        from ..fleet.jobs import StragglerEvent

        events = []
        for phase in self.phases:
            if phase.start_s == 0.0 and phase.degree == 1.0:
                continue  # leading baseline: not a notification
            events.append(StragglerEvent(
                time_s=start_s + phase.start_s,
                job_id=job_id,
                degree=phase.degree,
            ))
        return events


# -- the scenario library ----------------------------------------------------

def thermal_ramp(
    peak: float = 1.35,
    start_s: float = 240.0,
    ramp_steps: int = 3,
    step_s: float = 120.0,
    hold_s: float = 600.0,
    recover: bool = True,
    energy_factor: float = 1.0,
) -> DriftScenario:
    """A stepped thermal-throttle ramp up, hold, and (optional) ramp down.

    Unannounced: only measurement-driven detection sees it.
    """
    if ramp_steps < 1:
        raise ConfigurationError("thermal ramp needs >= 1 ramp step")
    from ..stragglers.injection import stepped_ramp

    ramp = stepped_ramp(peak, ramp_steps)
    phases = [DriftPhase(start_s=0.0)]
    for i, throttle in enumerate(ramp, start=1):
        ef = 1.0 + (energy_factor - 1.0) * i / ramp_steps
        phases.append(DriftPhase(
            start_s=start_s + (i - 1) * step_s,
            degree=throttle.degree, energy_factor=ef,
        ))
    hold_end = start_s + (ramp_steps - 1) * step_s + hold_s
    if recover:
        down = [throttle.degree for throttle in ramp[:-1]][::-1] + [1.0]
        for j, degree in enumerate(down):
            i = ramp_steps - 1 - j
            ef = 1.0 + (energy_factor - 1.0) * i / ramp_steps
            phases.append(DriftPhase(
                start_s=hold_end + j * step_s,
                degree=degree, energy_factor=ef,
            ))
    return DriftScenario(
        name="thermal-ramp",
        phases=tuple(phases),
        description=(
            f"unannounced thermal throttle ramping to {peak:g}x over "
            f"{ramp_steps} steps, holding {hold_s:g}s"
            + (", then recovering" if recover else "")
        ),
    )


def stale_profile(
    degree: float = 1.25,
    energy_factor: float = 1.0,
) -> DriftScenario:
    """The job arrives mispriced: its profile was taken on healthier
    hardware, so from the first iteration it realizes ``degree`` times
    its planned speed.  Unannounced and permanent."""
    return DriftScenario(
        name="stale-profile",
        phases=(DriftPhase(start_s=0.0, degree=degree,
                           energy_factor=energy_factor),),
        description=(
            f"stale profile: the job realizes {degree:g}x its planned "
            f"iteration time from arrival"
        ),
    )


def checkpoint_restart(
    degree: float = 1.2,
    throttle_start_s: float = 180.0,
    restart_s: float = 900.0,
) -> DriftScenario:
    """A throttled job checkpoint/restarts mid-run.

    The restart resets the *deployment* to the default plan while the
    throttle persists -- the controller must re-adopt the held
    decision instead of re-detecting from scratch.
    """
    if restart_s <= throttle_start_s:
        raise ConfigurationError(
            "the restart must come after the throttle starts"
        )
    return DriftScenario(
        name="checkpoint-restart",
        phases=(
            DriftPhase(start_s=0.0),
            DriftPhase(start_s=throttle_start_s, degree=degree),
        ),
        restarts=(restart_s,),
        description=(
            f"{degree:g}x throttle from {throttle_start_s:g}s with a "
            f"checkpoint/restart at {restart_s:g}s"
        ),
    )


def flapping(
    degree: float = 1.3,
    start_s: float = 120.0,
    period_s: float = 90.0,
    cycles: int = 8,
    announced: bool = False,
) -> DriftScenario:
    """A straggler that appears and clears every ``period_s`` seconds.

    The pathological input for a naive closed loop: every flap is a
    legitimate-looking drift signal, so only the token bucket keeps
    the re-plan rate bounded.
    """
    if cycles < 1:
        raise ConfigurationError("flapping needs >= 1 cycle")
    phases = [DriftPhase(start_s=0.0)]
    for c in range(cycles):
        t = start_s + 2 * c * period_s
        phases.append(DriftPhase(start_s=t, degree=degree,
                                 announced=announced))
        phases.append(DriftPhase(start_s=t + period_s,
                                 announced=announced))
    return DriftScenario(
        name="flapping",
        phases=tuple(phases),
        description=(
            f"straggler flapping 1.0<->{degree:g}x every {period_s:g}s "
            f"for {cycles} cycles"
        ),
    )


#: Scenario registry (name -> factory taking keyword overrides).
SCENARIOS: Dict[str, Callable[..., DriftScenario]] = {
    "thermal-ramp": thermal_ramp,
    "stale-profile": stale_profile,
    "checkpoint-restart": checkpoint_restart,
    "flapping": flapping,
}


def get_scenario(name: str, **overrides) -> DriftScenario:
    """Build a library scenario by name (keyword overrides pass through)."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown drift scenario {name!r}; "
            f"choose from {sorted(SCENARIOS)}"
        ) from None
    return factory(**overrides)


# -- driving a running fleet simulation --------------------------------------

class ScenarioDriver:
    """Applies a scenario to a *running* fleet simulation.

    Attach via ``FleetSimulator(..., observers=[driver])``.  The
    driver schedules a wake-up for each phase boundary (so the event
    loop advances to exactly those instants) and calls
    ``sim.set_straggler`` as each boundary comes due -- the online
    twin of baking :meth:`DriftScenario.to_events` into the trace.
    ``restarts`` have no fleet meaning (the fleet model deploys plans
    instantaneously) and are ignored here.
    """

    def __init__(self, job_id: str, scenario: DriftScenario,
                 start_s: float = 0.0) -> None:
        self.job_id = job_id
        self.scenario = scenario
        self.start_s = float(start_s)
        self._pending: List[Tuple[float, float]] = [
            (self.start_s + phase.start_s, phase.degree)
            for phase in scenario.phases
            if not (phase.start_s == 0.0 and phase.degree == 1.0)
        ]
        self.applied = 0

    def attach(self, sim) -> None:
        if self._pending:
            sim.schedule_wake(self._pending[0][0])

    def __call__(self, sim, now: float) -> None:
        while self._pending and self._pending[0][0] <= now + _TIME_EPS:
            _, degree = self._pending.pop(0)
            sim.set_straggler(self.job_id, degree)
            self.applied += 1
        if self._pending:
            sim.schedule_wake(self._pending[0][0])


# -- the analytic closed-loop simulator --------------------------------------

@dataclass
class DriftRunReport:
    """One (scenario, mode) analytic run, reduced to what the bench
    compares."""

    scenario: str
    mode: str
    iterations: int
    time_s: float
    energy_j: float
    counters: Dict[str, int] = field(default_factory=dict)
    #: Accepted re-plans whose predicted energy exceeded the held
    #: plan's (the guardrail contract says this must stay 0).
    guardrail_violations: int = 0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "iterations": self.iterations,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "counters": dict(self.counters),
            "guardrail_violations": self.guardrail_violations,
        }


def simulate_scenario(
    model,
    scenario: DriftScenario,
    mode: str = "closed",
    iterations: int = 400,
    policy: Optional[DriftPolicy] = None,
) -> DriftRunReport:
    """Run one job through a scenario under one control policy.

    ``model`` is a :class:`~repro.fleet.power.JobPowerModel`.  Modes:

    * ``"hold"`` -- deploy the planned baseline and never react (what
      the reproduction did before this package existed);
    * ``"closed"`` -- a real :class:`DriftController` fed the realized
      measurements, re-planning through the frontier;
    * ``"oracle"`` -- re-point instantly and perfectly at every phase
      change (the information-theoretic bound: zero detection latency,
      free re-plans).

    Announced phases reach every mode instantly (a ``set_straggler``
    does not need detection); unannounced phases are where the modes
    diverge.  The run is pure arithmetic -- the controller's clock is
    simulated time -- so reports are bit-deterministic.
    """
    if mode not in ("hold", "closed", "oracle"):
        raise ConfigurationError(
            f"mode must be hold, closed or oracle, got {mode!r}"
        )
    frontier = model.frontier
    t_min = model.t_min
    clock = [0.0]
    deployed = {"idx": 0}
    violations = [0]
    controller: Optional[DriftController] = None

    def replan(target_s, reason, signal):
        # Price the candidate and the held plan identically: Eq. 3 at
        # the floor the controller asked to plan for.
        cand_idx = frontier.index_for(target_s)
        cand = model.point(cand_idx, floor_time_s=target_s)
        held = model.point(deployed["idx"], floor_time_s=target_s)

        def apply() -> None:
            if reason not in (REASON_PROBE,) and \
                    cand.energy_j > held.energy_j * (1.0 + 1e-9):
                violations[0] += 1
            deployed["idx"] = cand_idx

        return ReplanProposal(
            planned_time_s=cand.iteration_time_s,
            predicted_energy_j=cand.energy_j,
            held_predicted_energy_j=held.energy_j,
            apply=apply,
        )

    if mode == "closed":
        base = model.point(0)
        controller = DriftController(
            replan,
            planned_time_s=base.iteration_time_s,
            planned_energy_j=base.energy_j,
            policy=policy,
            clock=lambda: clock[0],
        )

    restarts = sorted(scenario.restarts)
    announced = [p for p in scenario.phases if p.announced]
    t = 0.0
    energy = 0.0
    prev_phase = None
    for _ in range(iterations):
        while restarts and restarts[0] <= t + _TIME_EPS:
            restarts.pop(0)
            deployed["idx"] = 0  # the runtime restarts on its default plan
            if controller is not None:
                controller.notify_restart()
        phase = scenario.phase_at(t)
        floor = straggler_floor(t_min, phase.degree)
        if mode == "oracle":
            deployed["idx"] = frontier.index_for(floor)
        elif phase is not prev_phase and phase.announced:
            # A Table 2 notification: every mode re-points at once,
            # exactly as the server's set_straggler path would.
            deployed["idx"] = frontier.index_for(floor)
            if controller is not None:
                point = model.point(deployed["idx"], floor_time_s=floor)
                controller.detector.rebase(point.iteration_time_s,
                                           point.energy_j)
                controller.held_target_s = floor
        prev_phase = phase
        point = model.point(deployed["idx"], floor_time_s=floor)
        step_time = point.iteration_time_s
        step_energy = point.energy_j * phase.energy_factor
        energy += step_energy
        t += step_time
        clock[0] = t
        if controller is not None:
            controller.observe(step_time, step_energy)

    counters = dict(controller.stats) if controller is not None else {}
    if announced and mode != "oracle":
        counters["announced_phases"] = len(announced)
    return DriftRunReport(
        scenario=scenario.name,
        mode=mode,
        iterations=iterations,
        time_s=t,
        energy_j=energy,
        counters=counters,
        guardrail_violations=violations[0],
    )
