"""The closed-loop drift controller: signals in, bounded re-plans out.

A :class:`DriftController` owns one job's loop.  Every realized step
feeds :meth:`observe`; when the :class:`~repro.drift.detector.
DriftDetector` flags sustained drift, the controller asks its injected
``replan`` callable for a :class:`ReplanProposal` and adopts it only
when the robustness contract allows:

* **Token bucket** (:class:`~repro.service.admission.TokenBucket`):
  every plan-changing action -- re-plan, probe, even a failed attempt
  that reached the planner -- costs a token, so a flapping signal can
  never thrash the deploy path faster than ``replan_rate`` sustained
  (with ``replan_burst`` headroom).
* **Guardrail**: a drift re-plan is adopted only if its predicted
  energy is no worse than the held plan's predicted energy *under the
  same observed conditions* -- both predictions come from the
  ``replan`` callable, priced consistently, so "zero guardrail
  violations" is checkable after the fact.
* **Graceful degradation**: a ``replan`` that raises or exceeds
  ``replan_timeout_s`` leaves the held plan deployed and backs the
  next attempt off exponentially (``backoff_base_s`` doubling to
  ``backoff_cap_s``); the job keeps training on the plan it has.

Recovery needs one extra mechanism.  Re-pointing a throttled job to a
slower schedule makes the throttle *invisible*: the realized time then
matches the adopted plan, so when the fault clears there is no signal.
After ``probe_after_steps`` calm iterations in the ``DRIFTED`` state
the controller **probes** -- redeploys the baseline (no drift floor)
plan and watches.  A still-active fault re-flags within ``patience``
steps and a corrective re-plan restores the floored schedule; a
cleared fault leaves the probe in-band and the controller returns to
``TRACKING``.  Probes are guardrail-exempt (under an active floor the
baseline always predicts worse -- that is the point of looking) but
token-charged, so probing is rate-bounded like everything else.

:meth:`notify_restart` handles checkpoint/restart: the restarted
runtime comes back on its default plan, and the controller immediately
re-adopts the held decision (guardrail- and bucket-exempt -- it is
re-pushing an already-vetted plan, not changing it).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from ..exceptions import ConfigurationError, ReproError
from ..service.admission import TokenBucket
from .detector import DriftBand, DriftDetector, DriftSignal

#: Controller states.
TRACKING = "tracking"    #: in-band on the planned point
DRIFTED = "drifted"      #: running a drift re-plan (floored schedule)
PROBING = "probing"      #: baseline redeployed to test for recovery

#: Re-plan reasons handed to the ``replan`` callable.
REASON_DRIFT = "drift"
REASON_PROBE = "probe"
REASON_READOPT = "readopt"

#: Relative slack the energy guardrail allows (float noise, not policy).
ENERGY_TOLERANCE = 1e-9


class ReplanTimeout(ReproError):
    """The ``replan`` callable exceeded ``replan_timeout_s``."""


@dataclass(frozen=True)
class DriftPolicy:
    """Tunables for one job's drift loop (all robustness knobs)."""

    band: DriftBand = field(default_factory=DriftBand)
    patience: int = 3
    window: int = 8
    #: Sustained re-plan rate (tokens/second) and burst headroom.
    replan_rate: float = 1.0 / 120.0
    replan_burst: float = 4.0
    backoff_base_s: float = 5.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 300.0
    #: Calm steps in ``DRIFTED`` before probing for recovery
    #: (``None`` disables probing).
    probe_after_steps: Optional[int] = 25
    #: A probe that finds the fault still active doubles the wait
    #: before the next one (capped at ``probe_backoff_cap`` times the
    #: base), so a *permanent* fault is probed ever more rarely
    #: instead of periodically forever.  Recovery resets the cadence.
    probe_backoff_factor: float = 2.0
    probe_backoff_cap: int = 8
    #: Wall-clock bound on one ``replan`` call (``None``: unbounded,
    #: the right choice for deterministic simulation).
    replan_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ConfigurationError("patience must be >= 1")
        if self.replan_rate <= 0 or self.replan_burst < 1:
            raise ConfigurationError(
                "replan_rate must be > 0 and replan_burst >= 1"
            )
        if self.backoff_base_s <= 0 or self.backoff_factor < 1 \
                or self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError(
                "backoff needs base > 0, factor >= 1, cap >= base"
            )
        if self.probe_after_steps is not None and self.probe_after_steps < 1:
            raise ConfigurationError("probe_after_steps must be >= 1")
        if self.probe_backoff_factor < 1 or self.probe_backoff_cap < 1:
            raise ConfigurationError(
                "probe backoff needs factor >= 1 and cap >= 1"
            )
        if self.replan_timeout_s is not None and self.replan_timeout_s <= 0:
            raise ConfigurationError("replan_timeout_s must be > 0")


@dataclass(frozen=True)
class ReplanProposal:
    """What a ``replan`` callable offers (side-effect-free until applied).

    ``predicted_energy_j`` and ``held_predicted_energy_j`` must be
    priced consistently (same model, same observed floor) -- the
    guardrail compares them directly.  Once adopted,
    ``predicted_energy_j`` is the Eq. 3 energy the detector holds
    realized steps against.  ``apply`` performs the actual
    adoption (deploy + state update) and runs only if the controller
    accepts the proposal.
    """

    planned_time_s: float
    predicted_energy_j: float
    held_predicted_energy_j: float
    apply: Callable[[], None]
    detail: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class DriftAction:
    """What one :meth:`DriftController.observe` call decided."""

    state: str
    detected: bool = False
    replanned: bool = False
    reason: Optional[str] = None
    held: Optional[str] = None
    target_time_s: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "detected": self.detected,
            "replanned": self.replanned,
            "reason": self.reason,
            "held": self.held,
            "target_time_s": self.target_time_s,
        }


def planned_stage_times(dag, schedule) -> Dict[int, float]:
    """Per-stage planned busy time (summed op durations) of a schedule.

    The drift path compares these against observed per-stage busy
    times to localize which stages actually drifted before
    re-profiling them.
    """
    out: Dict[int, float] = {}
    for name, duration in schedule.durations.items():
        stage = dag.nodes[name].stage
        out[stage] = out.get(stage, 0.0) + duration
    return out


class DriftController:
    """One job's drift loop; see the module docstring for the contract.

    ``replan(target_time_s, reason, signal)`` must return a
    :class:`ReplanProposal` (or ``None`` to decline).  ``target_time_s``
    is the iteration-time floor the controller wants planned for
    (``None`` asks for the baseline, floor-free plan -- probes and
    restarts of a baseline-held job).  ``clock`` is injectable so
    simulated time drives the token bucket and backoff deadlines
    deterministically.
    """

    def __init__(
        self,
        replan: Callable[..., Optional[ReplanProposal]],
        planned_time_s: float,
        planned_energy_j: float,
        policy: Optional[DriftPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or DriftPolicy()
        self._replan = replan
        self._clock = clock
        self.detector = DriftDetector(
            planned_time_s,
            planned_energy_j,
            band=self.policy.band,
            patience=self.policy.patience,
            window=self.policy.window,
        )
        self._bucket = TokenBucket(
            rate=self.policy.replan_rate,
            burst=self.policy.replan_burst,
            clock=clock,
        )
        self.state = TRACKING
        #: The floor target of the currently-held plan (None: baseline).
        self.held_target_s: Optional[float] = None
        #: Planned time of the *unfloored* plan -- what "recovered"
        #: means.  Probe adoptions refresh it (they deploy exactly
        #: that plan); re-profiling re-plans may declare a new one via
        #: ``proposal.detail["new_baseline"]``.
        self.baseline_time_s = float(planned_time_s)
        self._retry_at: Optional[float] = None
        self._backoff_s = self.policy.backoff_base_s
        self._calm = 0
        self._probe_after = self.policy.probe_after_steps
        self._was_flagged = False
        self.stats: Dict[str, int] = {
            "samples": 0,
            "detections": 0,
            "replans": 0,
            "probes": 0,
            "readoptions": 0,
            "recoveries": 0,
            "guardrail_rejections": 0,
            "bucket_denials": 0,
            "backoff_holds": 0,
            "failures": 0,
            "timeouts": 0,
            "declines": 0,
        }

    # -- the loop ------------------------------------------------------------
    def observe(
        self,
        time_s: float,
        energy_j: Optional[float] = None,
    ) -> DriftAction:
        """Feed one realized iteration; maybe re-plan; report back."""
        now = self._clock()
        signal = self.detector.observe(time_s, energy_j)  # may reject
        self.stats["samples"] += 1
        if signal is not None and not self._was_flagged:
            self.stats["detections"] += 1
        self._was_flagged = signal is not None

        if signal is not None:
            self._calm = 0
            was_probing = self.state == PROBING
            target = self.detector.planned_time_s * signal.time_factor
            action = self._attempt(target, REASON_DRIFT, signal, now)
            if action.replanned:
                # Drifted means "held slower than the baseline plan"
                # -- not "the signal pointed up": a partial recovery
                # is a *negative* drift signal that still leaves the
                # job floored, and probing must continue from there.
                self.state = DRIFTED if self._above_baseline(target) \
                    else TRACKING
                if was_probing and self._probe_after is not None:
                    # The probe found the fault still active: wait
                    # longer before looking again.
                    self._probe_after = min(
                        self.policy.probe_after_steps
                        * self.policy.probe_backoff_cap,
                        max(self._probe_after + 1, int(
                            self._probe_after
                            * self.policy.probe_backoff_factor)),
                    )
            return action

        if self.state == DRIFTED and self._probe_after is not None:
            self._calm += 1
            if self._calm >= self._probe_after:
                action = self._attempt(None, REASON_PROBE, None, now)
                if action.replanned:
                    self.state = PROBING
                self._calm = 0
                return action
        elif self.state == PROBING:
            self._calm += 1
            if self._calm >= self.policy.patience:
                # The probe survived a full patience window in-band:
                # the fault is gone and the baseline plan is correct.
                self.state = TRACKING
                self.stats["recoveries"] += 1
                self._calm = 0
                self._probe_after = self.policy.probe_after_steps
        return DriftAction(state=self.state, detected=False)

    def notify_restart(self) -> DriftAction:
        """Re-adopt the held decision after a checkpoint/restart.

        The restarted runtime redeploys its default plan; pushing the
        held decision back is not a plan *change*, so it is exempt
        from both the guardrail and the token bucket -- but it still
        degrades gracefully (a failed re-adopt leaves the default
        plan running and retries ride the normal drift path).
        """
        now = self._clock()
        try:
            proposal = self._call_replan(
                self.held_target_s, REASON_READOPT, None)
        except ReplanTimeout:
            self.stats["timeouts"] += 1
            self._note_failure(now)
            return DriftAction(state=self.state, held="timeout",
                               reason=REASON_READOPT)
        except Exception:
            self._note_failure(now)
            return DriftAction(state=self.state, held="error",
                               reason=REASON_READOPT)
        if proposal is None:
            self.stats["declines"] += 1
            return DriftAction(state=self.state, held="declined",
                               reason=REASON_READOPT)
        proposal.apply()
        self.stats["readoptions"] += 1
        self._adopt(proposal)
        self.state = DRIFTED if self._above_baseline(self.held_target_s) \
            else TRACKING
        return DriftAction(state=self.state, replanned=True,
                           reason=REASON_READOPT,
                           target_time_s=self.held_target_s)

    def notify_external_replan(self, planned_time_s: float,
                               planned_energy_j: float) -> None:
        """The job was re-pointed outside the loop (an *announced*
        Table 2 ``set_straggler`` deploy).  Announced floors are owned
        by the straggler machinery, not this controller: rebase to the
        new plan's time and Eq. 3 energy and keep watching for
        residual, unannounced drift on top of it."""
        self.held_target_s = None
        self.detector.rebase(planned_time_s, planned_energy_j)
        self.state = TRACKING
        self._calm = 0
        self._probe_after = self.policy.probe_after_steps
        self._was_flagged = False

    # -- internals -----------------------------------------------------------
    def _attempt(
        self,
        target_time_s: Optional[float],
        reason: str,
        signal: Optional[DriftSignal],
        now: float,
    ) -> DriftAction:
        detected = reason == REASON_DRIFT
        if self._retry_at is not None and now < self._retry_at:
            self.stats["backoff_holds"] += 1
            return DriftAction(state=self.state, detected=detected,
                               held="backoff", reason=reason)
        if reason != REASON_PROBE:
            # Probes skip the bucket: their rate is already bounded by
            # probe_after_steps (at most one per calm window), and a
            # starved probe would leave a recovered job running slow
            # forever -- trading the time contract for energy.
            wait = self._bucket.try_acquire()
            if wait > 0:
                self.stats["bucket_denials"] += 1
                # Hold until a token will exist; signaling every step
                # against an empty bucket is noise, not robustness.
                self._retry_at = now + wait
                return DriftAction(state=self.state, detected=detected,
                                   held="bucket", reason=reason)
        try:
            proposal = self._call_replan(target_time_s, reason, signal)
        except ReplanTimeout:
            self.stats["timeouts"] += 1
            self._note_failure(now)
            return DriftAction(state=self.state, detected=detected,
                               held="timeout", reason=reason)
        except Exception:
            self._note_failure(now)
            return DriftAction(state=self.state, detected=detected,
                               held="error", reason=reason)
        if proposal is None:
            self.stats["declines"] += 1
            self._note_backoff(now)
            return DriftAction(state=self.state, detected=detected,
                               held="declined", reason=reason)
        if reason == REASON_DRIFT:
            limit = proposal.held_predicted_energy_j \
                * (1.0 + ENERGY_TOLERANCE)
            if proposal.predicted_energy_j > limit:
                self.stats["guardrail_rejections"] += 1
                self._note_backoff(now)
                return DriftAction(state=self.state, detected=detected,
                                   held="guardrail", reason=reason)
        proposal.apply()
        self.stats["replans" if reason == REASON_DRIFT else "probes"] += 1
        self.held_target_s = target_time_s
        if reason == REASON_PROBE or proposal.detail.get("new_baseline"):
            self.baseline_time_s = proposal.planned_time_s
        self._adopt(proposal)
        return DriftAction(state=self.state, detected=detected,
                           replanned=True, reason=reason,
                           target_time_s=target_time_s)

    def _above_baseline(self, target_time_s: Optional[float]) -> bool:
        if target_time_s is None:
            return False
        return target_time_s > self.baseline_time_s \
            * (1.0 + self.policy.band.exit)

    def _adopt(self, proposal: ReplanProposal) -> None:
        self.detector.rebase(proposal.planned_time_s,
                             proposal.predicted_energy_j)
        self._backoff_s = self.policy.backoff_base_s
        self._retry_at = None
        self._calm = 0
        self._was_flagged = False

    def _note_failure(self, now: float) -> None:
        self.stats["failures"] += 1
        self._note_backoff(now)

    def _note_backoff(self, now: float) -> None:
        self._retry_at = now + self._backoff_s
        self._backoff_s = min(
            self.policy.backoff_cap_s,
            self._backoff_s * self.policy.backoff_factor,
        )

    def _call_replan(
        self,
        target_time_s: Optional[float],
        reason: str,
        signal: Optional[DriftSignal],
    ) -> Optional[ReplanProposal]:
        from ..obs.trace import span as obs_span
        from ..obs.trace import wrap_context

        timeout = self.policy.replan_timeout_s
        if timeout is None:
            with obs_span("drift.replan", reason=reason):
                return self._replan(target_time_s, reason, signal)
        box: dict = {}

        def runner() -> None:
            try:
                with obs_span("drift.replan", reason=reason):
                    box["value"] = self._replan(
                        target_time_s, reason, signal)
            except BaseException as exc:  # surfaced on the caller thread
                box["error"] = exc

        thread = threading.Thread(
            target=wrap_context(runner), name="repro-drift-replan",
            daemon=True)
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            raise ReplanTimeout(
                f"drift re-plan ({reason}) exceeded {timeout:g}s; "
                f"holding the deployed plan"
            )
        if "error" in box:
            raise box["error"]
        return box.get("value")
