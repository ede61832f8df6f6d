"""``repro.drift``: close the profile->plan->deploy loop online.

Perseus plans from an *offline* profile; a real job drifts away from
it -- thermal throttling stretches step times, a checkpoint/restart
resets the deployed plan, a stale profile mis-prices every stage from
the first iteration.  This package watches realized step measurements,
detects when the job leaves the planned frontier beyond a hysteresis
band, and re-points it mid-flight through the same planning stack that
produced the original schedule:

* :mod:`~repro.drift.detector` -- the hysteresis band.  A
  :class:`DriftDetector` compares observed iteration time/energy
  against the planned operating point and emits a
  :class:`DriftSignal` only after ``patience`` consecutive
  out-of-band samples (enter threshold), clearing only after the
  deviation falls below the tighter exit threshold.
* :mod:`~repro.drift.controller` -- the closed loop.  A
  :class:`DriftController` turns signals into re-plans with the
  robustness contract attached: a token bucket bounds re-plan rate
  (flapping cannot thrash), re-plan failures and timeouts fall back
  to the held plan under exponential backoff, and a guardrail rejects
  any re-plan whose predicted energy exceeds the held plan's.
* :mod:`~repro.drift.scenarios` -- the fault-injection library.
  :class:`DriftScenario` describes thermal-throttle ramps,
  checkpoint/restarts with plan re-adoption, stale-profile arrivals
  and flapping stragglers; the same scenario drives the analytic
  closed-loop simulator (:func:`simulate_scenario`), a
  :class:`~repro.fleet.simulator.FleetSimulator` (baked into its trace
  by :meth:`DriftScenario.to_events`), and the chaos tests.
"""

from .detector import DriftBand, DriftDetector, DriftSignal
from .controller import (
    DRIFTED,
    PROBING,
    TRACKING,
    DriftAction,
    DriftController,
    DriftPolicy,
    ReplanProposal,
    ReplanTimeout,
    planned_stage_times,
)
from .scenarios import (
    SCENARIOS,
    DriftPhase,
    DriftRunReport,
    DriftScenario,
    checkpoint_restart,
    flapping,
    get_scenario,
    simulate_scenario,
    stale_profile,
    thermal_ramp,
)

__all__ = [
    "DriftBand",
    "DriftDetector",
    "DriftSignal",
    "DriftAction",
    "DriftController",
    "DriftPolicy",
    "ReplanProposal",
    "ReplanTimeout",
    "TRACKING",
    "DRIFTED",
    "PROBING",
    "planned_stage_times",
    "DriftPhase",
    "DriftScenario",
    "DriftRunReport",
    "SCENARIOS",
    "get_scenario",
    "simulate_scenario",
    "thermal_ramp",
    "stale_profile",
    "checkpoint_restart",
    "flapping",
]
