"""Closed-loop drift: detector, controller contract, chaos, scenarios.

Four layers, mirroring the package:

* detector/controller units run with scripted ``replan`` callables and
  an injected clock, so every robustness clause -- hysteresis,
  patience, token bucket, guardrail, failure/timeout backoff, probing,
  restart re-adoption -- is exercised deterministically;
* the scenario library and analytic simulator (the benchmark's
  engine) are checked for shape and for the hold <= closed <= oracle
  energy ordering;
* the Perseus server's drift surface (``report_measurement``,
  ``enable_drift``, the energy re-profile path, announced-straggler
  handoff) runs against a real characterized frontier;
* the fleet simulator's online injection (``set_straggler`` into a
  *running* simulation via :class:`ScenarioDriver`) must be
  bit-identical to baking the same events into the trace.
"""

from __future__ import annotations

import threading

import pytest

from repro.drift import (
    DRIFTED,
    PROBING,
    TRACKING,
    DriftBand,
    DriftController,
    DriftDetector,
    DriftPolicy,
    ReplanProposal,
    get_scenario,
    planned_stage_times,
    simulate_scenario,
    stale_profile,
    thermal_ramp,
)
from repro.drift.detector import ENERGY_DRIFT, TIME_DRIFT
from repro.exceptions import (
    ConfigurationError,
    ServerError,
    SimulationError,
)
from repro.runtime.server import PerseusServer
from repro.stragglers import stepped_ramp

T0 = 1.0  # planned iteration time used by the unit layers
E0 = 100.0  # its planned Eq. 3 energy (ScriptedPlanner's price at T0)


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_policy(**overrides) -> DriftPolicy:
    """A tight-but-standard policy for unit tests."""
    merged = dict(
        patience=3,
        window=8,
        replan_rate=1.0,      # a token per simulated second
        replan_burst=4,
        backoff_base_s=5.0,
        probe_after_steps=10,
    )
    merged.update(overrides)
    return DriftPolicy(**merged)


class ScriptedPlanner:
    """A ``replan`` callable that offers simple frontier-ish proposals.

    The "frontier" is a straight line: a floor of ``target`` plans a
    schedule at exactly ``target`` (baseline ``T0``), predicted energy
    ``100/t`` (slower = cheaper), so the guardrail naturally passes
    drift re-plans.  Tests override pieces per-case.
    """

    def __init__(self) -> None:
        self.calls = []
        self.applied = []
        self.fail_with = None
        self.decline = False
        self.sleep_s = 0.0
        self.energy_of = lambda t: 100.0 / t

    def __call__(self, target_s, reason, signal):
        self.calls.append((target_s, reason))
        if self.sleep_s:
            import time as _time

            _time.sleep(self.sleep_s)
        if self.fail_with is not None:
            raise self.fail_with
        if self.decline:
            return None
        planned = target_s if target_s is not None else T0
        held = self.applied[-1] if self.applied else T0

        def apply(planned=planned):
            self.applied.append(planned)

        return ReplanProposal(
            planned_time_s=planned,
            predicted_energy_j=self.energy_of(planned),
            held_predicted_energy_j=self.energy_of(held),
            apply=apply,
        )


def make_controller(planner=None, policy=None, clock=None,
                    **kwargs) -> tuple:
    planner = planner or ScriptedPlanner()
    clock = clock or FakeClock()
    controller = DriftController(
        planner,
        planned_time_s=T0,
        planned_energy_j=E0,
        policy=policy or make_policy(),
        clock=clock,
        **kwargs,
    )
    return controller, planner, clock


def drive(controller, clock, time_s, steps):
    """Feed ``steps`` identical observations, advancing the clock."""
    action = None
    for _ in range(steps):
        clock.advance(time_s)
        action = controller.observe(time_s)
    return action


# ------------------------------------------------------------------ detector

class TestDetector:
    def test_patience_gates_the_flag(self):
        det = DriftDetector(T0, E0, patience=3)
        assert det.observe(1.3) is None
        assert det.observe(1.3) is None
        signal = det.observe(1.3)
        assert signal is not None and signal.kind == TIME_DRIFT
        assert signal.time_factor == pytest.approx(1.3)

    def test_single_spike_never_flags(self):
        det = DriftDetector(T0, E0, patience=3)
        for _ in range(10):
            assert det.observe(2.0) is None or pytest.fail("flagged")
            assert det.observe(1.0) is None

    def test_hysteresis_band_holds_between_exit_and_enter(self):
        band = DriftBand(enter=0.08, exit=0.03)
        det = DriftDetector(T0, E0, band=band, patience=2)
        for _ in range(2):
            det.observe(1.2)
        assert det.flagged
        # 5% deviation: inside enter, outside exit -- stays flagged.
        for _ in range(5):
            assert det.observe(1.05) is not None
        # Below exit for `patience` samples: clears.
        det.observe(1.0)
        assert det.observe(1.0) is None
        assert not det.flagged

    def test_rebase_forgets_drift_state(self):
        det = DriftDetector(T0, E0, patience=2)
        det.observe(1.3)
        det.observe(1.3)
        assert det.flagged
        det.rebase(1.3, E0)
        assert not det.flagged
        assert det.observe(1.3) is None  # in-band on the new reference

    def test_energy_drift_against_planned_energy(self):
        det = DriftDetector(T0, E0, patience=2)
        assert det.observe(1.0, E0 * 1.02) is None  # in band
        det.observe(1.0, E0 * 1.4)
        signal = det.observe(1.0, E0 * 1.4)
        assert signal is not None and signal.kind == ENERGY_DRIFT
        assert signal.energy_factor == pytest.approx(1.4)
        det.rebase(1.0, E0 * 1.4)  # a re-plan adopted at the new price
        assert det.observe(1.0, E0 * 1.4) is None

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_samples_rejected(self, bad):
        det = DriftDetector(T0, E0, patience=2)
        with pytest.raises(ConfigurationError, match="finite"):
            det.observe(bad)
        with pytest.raises(ConfigurationError, match="finite"):
            det.observe(1.0, bad)
        with pytest.raises(ConfigurationError, match="finite"):
            det.rebase(bad, E0)
        with pytest.raises(ConfigurationError, match="finite"):
            det.rebase(T0, bad)
        assert det.steps == 0  # nothing was recorded

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftBand(enter=0.03, exit=0.08)
        with pytest.raises(ConfigurationError):
            DriftDetector(T0, E0, patience=0)
        with pytest.raises(ConfigurationError):
            DriftDetector(T0, E0, patience=4, window=2)
        det = DriftDetector(T0, E0)
        with pytest.raises(ConfigurationError):
            det.observe(-1.0)


# ---------------------------------------------------------------- controller

class TestControllerLoop:
    def test_detect_then_replan_then_drifted(self):
        controller, planner, clock = make_controller()
        action = drive(controller, clock, 1.3, 2)
        assert not action.detected
        action = drive(controller, clock, 1.3, 1)
        assert action.detected and action.replanned
        assert action.target_time_s == pytest.approx(1.3)
        assert controller.state == DRIFTED
        assert planner.applied == [pytest.approx(1.3)]
        assert controller.stats["detections"] == 1
        assert controller.stats["replans"] == 1

    def test_in_band_stays_tracking_and_never_calls_replan(self):
        controller, planner, clock = make_controller()
        action = drive(controller, clock, 1.01, 20)
        assert action.state == TRACKING and not action.replanned
        assert planner.calls == []

    def test_probe_and_recovery(self):
        policy = make_policy(probe_after_steps=5)
        controller, planner, clock = make_controller(policy=policy)
        drive(controller, clock, 1.3, 3)  # detect + replan to 1.3
        # Calm (in-band on the adopted plan) until the probe fires.
        action = drive(controller, clock, 1.3, 5)
        assert action.replanned and action.reason == "probe"
        assert controller.state == PROBING
        assert controller.stats["probes"] == 1
        # The fault is gone: the baseline probe realizes T0 in-band.
        drive(controller, clock, 1.0, 3)
        assert controller.state == TRACKING
        assert controller.stats["recoveries"] == 1

    def test_probe_finding_fault_backs_off_exponentially(self):
        policy = make_policy(probe_after_steps=4, probe_backoff_factor=2.0,
                             probe_backoff_cap=4)
        controller, planner, clock = make_controller(policy=policy)
        drive(controller, clock, 1.3, 3)
        probes_at = []
        step = 0
        for _ in range(60):
            step += 1
            clock.advance(1.3)
            # Still throttled: a probe's baseline plan realizes 1.3,
            # re-flagging within patience and re-flooring the job.
            action = controller.observe(1.3 if controller.state != PROBING
                                        else 1.3)
            if action.reason == "probe" and action.replanned:
                probes_at.append(step)
        gaps = [b - a for a, b in zip(probes_at, probes_at[1:])]
        assert gaps and all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] > gaps[0]  # the cadence really stretched

    def test_restart_readopts_held_plan_without_tokens(self):
        policy = make_policy(replan_rate=0.001, replan_burst=1)
        controller, planner, clock = make_controller(policy=policy)
        drive(controller, clock, 1.3, 3)  # spends the only token
        action = controller.notify_restart()
        assert action.replanned and action.reason == "readopt"
        assert action.target_time_s == pytest.approx(1.3)
        assert controller.stats["readoptions"] == 1
        assert planner.applied[-1] == pytest.approx(1.3)

    def test_external_replan_rebases_and_clears_state(self):
        controller, planner, clock = make_controller()
        drive(controller, clock, 1.3, 3)
        assert controller.state == DRIFTED
        controller.notify_external_replan(1.5, E0 / 1.5)
        assert controller.state == TRACKING
        assert controller.held_target_s is None
        # In-band on the announced plan: no further signal.
        action = drive(controller, clock, 1.5, 5)
        assert not action.detected and planner.calls[-1][1] != "drift" \
            or len(planner.calls) == 1


class TestControllerChaos:
    def test_guardrail_rejects_costlier_replan(self):
        planner = ScriptedPlanner()
        planner.energy_of = lambda t: 100.0 * t  # slower = pricier
        controller, _, clock = make_controller(planner=planner)
        action = drive(controller, clock, 1.3, 3)
        assert action.detected and not action.replanned
        assert action.held == "guardrail"
        assert controller.stats["guardrail_rejections"] == 1
        assert planner.applied == []  # never deployed

    def test_token_bucket_bounds_replans_under_flapping(self):
        policy = make_policy(replan_rate=0.01, replan_burst=2,
                             probe_after_steps=None)
        controller, planner, clock = make_controller(policy=policy)
        flips = 0
        for cycle in range(20):
            drive(controller, clock, 1.4, 4)   # drifts up
            drive(controller, clock, 1.0, 4)   # snaps back
            flips += 2
        total_actions = (controller.stats["replans"]
                         + controller.stats["probes"])
        elapsed = clock.now
        assert total_actions <= policy.replan_burst \
            + policy.replan_rate * elapsed + 1
        assert controller.stats["bucket_denials"] > 0

    def test_replan_failure_backs_off_exponentially(self):
        planner = ScriptedPlanner()
        planner.fail_with = RuntimeError("planner down")
        policy = make_policy(backoff_base_s=10.0, backoff_factor=2.0,
                             backoff_cap_s=40.0)
        controller, _, clock = make_controller(planner=planner,
                                               policy=policy)
        action = drive(controller, clock, 1.3, 3)
        assert action.held == "error"
        assert controller.stats["failures"] == 1
        # Within the 10s backoff window: held without calling replan.
        calls = len(planner.calls)
        action = drive(controller, clock, 1.3, 2)  # 2 x 1.3s < 10s
        assert action.held == "backoff"
        assert len(planner.calls) == calls
        assert controller.stats["backoff_holds"] >= 1
        # Past the window the attempt retries (and fails again, doubling).
        clock.advance(10.0)
        action = controller.observe(1.3)
        assert action.held == "error"
        assert controller.stats["failures"] == 2

    def test_replan_timeout_holds_the_plan(self):
        planner = ScriptedPlanner()
        planner.sleep_s = 0.2
        policy = make_policy(replan_timeout_s=0.02)
        controller, _, clock = make_controller(planner=planner,
                                               policy=policy)
        action = drive(controller, clock, 1.3, 3)
        assert action.held == "timeout"
        assert controller.stats["timeouts"] == 1
        assert planner.applied == []

    def test_decline_is_graceful(self):
        planner = ScriptedPlanner()
        planner.decline = True
        controller, _, clock = make_controller(planner=planner)
        action = drive(controller, clock, 1.3, 3)
        assert action.held == "declined"
        assert controller.stats["declines"] == 1
        assert controller.state == TRACKING  # nothing changed

    def test_failed_readopt_leaves_default_plan(self):
        controller, planner, clock = make_controller()
        drive(controller, clock, 1.3, 3)
        planner.fail_with = RuntimeError("deploy path down")
        action = controller.notify_restart()
        assert not action.replanned and action.held == "error"
        assert controller.stats["readoptions"] == 0


# ----------------------------------------------------------------- scenarios

class TestScenarios:
    def test_stepped_ramp_shape(self):
        ramp = stepped_ramp(1.3, 3)
        assert [round(t.degree, 4) for t in ramp] == [1.1, 1.2, 1.3]
        with pytest.raises(SimulationError):
            stepped_ramp(0.9, 3)
        with pytest.raises(SimulationError):
            stepped_ramp(1.3, 0)

    def test_thermal_ramp_phases_ramp_hold_recover(self):
        sc = thermal_ramp(peak=1.3, start_s=100.0, ramp_steps=2,
                          step_s=50.0, hold_s=200.0)
        degrees = [p.degree for p in sc.phases]
        assert degrees[0] == 1.0 and max(degrees) == pytest.approx(1.3)
        assert degrees[-1] == 1.0  # recovered
        assert sc.degree_at(0.0) == 1.0
        assert sc.degree_at(160.0) == pytest.approx(1.3)

    def test_registry_and_unknown_name(self):
        assert get_scenario("stale-profile").name == "stale-profile"
        with pytest.raises(ConfigurationError, match="unknown drift"):
            get_scenario("quantum-foam")

    def test_to_events_skips_leading_baseline(self):
        sc = thermal_ramp(peak=1.2, start_s=10.0, ramp_steps=1,
                          step_s=5.0, hold_s=5.0)
        events = sc.to_events("job-0", start_s=100.0)
        assert all(e.time_s >= 110.0 for e in events)
        assert events[0].degree == pytest.approx(1.2)
        assert events[-1].degree == 1.0  # the recovery notification

    def test_phase_validation(self):
        from repro.drift import DriftPhase, DriftScenario

        with pytest.raises(ConfigurationError):
            DriftPhase(start_s=0.0, degree=0.5)
        with pytest.raises(ConfigurationError):
            DriftScenario(name="x", phases=())
        with pytest.raises(ConfigurationError):
            DriftScenario(name="x", phases=(
                DriftPhase(start_s=10.0), DriftPhase(start_s=5.0)))


@pytest.fixture(scope="module")
def power_model():
    """A small planned job priced as a JobPowerModel (bert-large x2)."""
    from repro.api import Planner, PlanSpec
    from repro.fleet.power import JobPowerModel

    spec = PlanSpec("bert-large", gpu="a100", stages=2, microbatches=4,
                    freq_stride=32)
    planner = Planner()
    stack = planner.result(spec)
    frontier = planner.frontier_for(spec)
    blocking = tuple(stack.profile.blocking_power(s) for s in range(2))
    return JobPowerModel(frontier, blocking)


class TestSimulateScenario:
    def test_modes_order_and_determinism(self, power_model):
        t0 = power_model.point(0).iteration_time_s
        policy = DriftPolicy(replan_rate=1.0 / (60 * t0), replan_burst=4,
                             probe_after_steps=25, backoff_base_s=5 * t0)
        sc = stale_profile(degree=1.25)
        rows = {m: simulate_scenario(power_model, sc, m, iterations=200,
                                     policy=policy)
                for m in ("hold", "closed", "oracle")}
        again = simulate_scenario(power_model, sc, "closed",
                                  iterations=200, policy=policy)
        assert again.to_dict() == rows["closed"].to_dict()
        hold, closed, oracle = (rows[m].energy_j
                                for m in ("hold", "closed", "oracle"))
        assert oracle < closed < hold
        assert all(rows[m].guardrail_violations == 0
                   for m in ("hold", "closed", "oracle"))

    def test_unknown_mode_rejected(self, power_model):
        with pytest.raises(ConfigurationError):
            simulate_scenario(power_model, stale_profile(), "psychic")


# -------------------------------------------------------------- server drift

@pytest.fixture()
def ready_server(small_dag, small_profile):
    """A server with one characterized job and a deploy-capture hook."""
    deploys = []
    server = PerseusServer(
        deploy_callback=lambda job_id, sched: deploys.append(
            (job_id, sched)))
    server.register_job("j", small_dag, tau=0.02)
    server.submit_profile("j", small_profile, blocking=True)
    return server, deploys


class TestServerDrift:
    def test_time_drift_replans_and_floors(self, ready_server):
        server, deploys = ready_server
        t0 = server.current_schedule("j").iteration_time
        server.enable_drift("j")
        before = len(deploys)
        for _ in range(4):
            action = server.report_measurement("j", t0 * 1.3)
            if action["replanned"]:
                break
        assert action["replanned"] and action["reason"] == "drift"
        assert server.current_schedule("j").iteration_time > t0
        assert len(deploys) > before  # the re-plan really deployed
        assert server.drift_stats()["j"]["replans"] == 1

    def test_enable_references_the_planned_eq3_energy(
            self, ready_server, small_profile):
        server, _ = ready_server
        sched = server.current_schedule("j")
        blocking_w = sum(small_profile.blocking_power(s)
                         for s in range(server._job("j").dag.num_stages))
        detector = server.enable_drift("j").detector
        assert detector.planned_time_s == sched.iteration_time
        assert detector.planned_energy_j == pytest.approx(
            sched.energy_at(blocking_w), rel=1e-12)
        # Energy 10% over the plan at the planned time flags as energy.
        for _ in range(3):
            action = server.report_measurement(
                "j", sched.iteration_time,
                energy_j=detector.planned_energy_j * 1.1)
        assert action["detected"]
        assert server._job("j").drift.stats["detections"] == 1

    def test_adopted_replan_references_its_predicted_energy(
            self, ready_server, small_profile):
        server, _ = ready_server
        t0 = server.current_schedule("j").iteration_time
        controller = server.enable_drift("j")
        for _ in range(4):
            action = server.report_measurement("j", t0 * 1.3)
            if action["replanned"]:
                break
        assert action["replanned"]
        floor = server._job("j").drift_floor_s
        held = server.current_schedule("j")
        blocking_w = sum(small_profile.blocking_power(s)
                         for s in range(server._job("j").dag.num_stages))
        e1 = controller.detector.planned_energy_j
        assert e1 == pytest.approx(held.energy_at(blocking_w, floor),
                                   rel=1e-12)
        t1 = controller.detector.planned_time_s
        for _ in range(3):  # on the adopted plan's time and energy
            action = server.report_measurement("j", t1, energy_j=e1)
        assert not action["detected"]
        for _ in range(3):
            action = server.report_measurement("j", t1, energy_j=e1 * 1.2)
        assert action["detected"]

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_report_is_rejected_without_replanning(
            self, ready_server, bad):
        server, deploys = ready_server
        t0 = server.current_schedule("j").iteration_time
        server.enable_drift("j")
        before = len(deploys)
        for _ in range(3):
            with pytest.raises(ConfigurationError, match="finite"):
                server.report_measurement("j", bad)
            with pytest.raises(ConfigurationError, match="finite"):
                server.report_measurement("j", t0, energy_j=bad)
        assert len(deploys) == before
        assert server._job("j").drift_floor_s is None
        assert server.current_schedule("j").iteration_time == t0
        assert server.drift_stats()["j"]["replans"] == 0
        assert server.drift_stats()["j"]["samples"] == 0

    def test_report_before_ready_is_held_not_an_error(self, small_dag):
        server = PerseusServer()
        server.register_job("j", small_dag, tau=0.02)
        action = server.report_measurement("j", 1.0)
        assert action == {"state": "pending", "detected": False,
                          "replanned": False, "reason": None,
                          "held": "not_ready", "target_time_s": None}

    def test_lazy_enable_on_first_report(self, ready_server):
        server, _ = ready_server
        t0 = server.current_schedule("j").iteration_time
        action = server.report_measurement("j", t0)
        assert action["state"] == "tracking"
        assert server.drift_stats()["j"]["samples"] == 1

    def test_restart_readopts(self, ready_server):
        server, deploys = ready_server
        t0 = server.current_schedule("j").iteration_time
        server.enable_drift("j")
        for _ in range(4):
            server.report_measurement("j", t0 * 1.3)
        floored = server.current_schedule("j").iteration_time
        action = server.notify_restart("j")
        assert action["replanned"] and action["reason"] == "readopt"
        assert server.current_schedule("j").iteration_time == \
            pytest.approx(floored)

    def test_restart_without_drift_repushes(self, ready_server):
        server, deploys = ready_server
        before = len(deploys)
        assert server.notify_restart("j") is None
        assert len(deploys) == before + 1

    def test_announced_straggler_retires_drift_floor(self, ready_server):
        server, _ = ready_server
        t0 = server.current_schedule("j").iteration_time
        frontier = server.frontier_of("j")
        server.enable_drift("j")
        for _ in range(4):
            server.report_measurement("j", t0 * 1.3)
        assert server.drift_stats()["j"]["state"] == "drifted"
        server.set_straggler("j", accelerator_id=0, delay_s=0.0,
                             degree=1.5)
        # The announcement owns the floor now; the controller rebased.
        assert server.drift_stats()["j"]["state"] == "tracking"
        assert server._job("j").drift_floor_s is None
        # Eq. 2: the deploy moves to min(T*, max(T', T_min)).
        from repro.core.unified import energy_optimal_iteration_time

        expected = energy_optimal_iteration_time(
            frontier, 1.5 * frontier.t_min)
        sched = server.current_schedule("j")
        assert sched.iteration_time == pytest.approx(expected)
        assert sched.iteration_time > t0

    def test_energy_drift_reprofiles_stages(self, ready_server):
        server, _ = ready_server
        sched = server.current_schedule("j")
        t0 = sched.iteration_time
        job = server._job("j")
        planned = planned_stage_times(job.dag, sched)
        stages = sorted(planned)
        e0 = server.enable_drift("j").detector.planned_energy_j
        for _ in range(3):  # in band on the planned Eq. 3 energy
            action = server.report_measurement("j", t0, energy_j=e0)
        assert not action["detected"]
        crawls_before = server._shared_planner().stats["frontier"]
        skewed = [planned[s] * (1.25 if s == stages[-1] else 1.0)
                  for s in stages]
        for _ in range(5):
            action = server.report_measurement(
                "j", t0, energy_j=e0 * 1.4, stage_time_s=skewed)
            if action["replanned"]:
                break
        assert action["replanned"]
        stats = server._shared_planner().stats
        assert stats["frontier"] == crawls_before + 1  # re-characterized
        assert job.drift_floor_s is None  # new baseline, not a floor


class TestServerRaces:
    def test_wait_ready_times_out_without_characterization(self,
                                                           small_dag):
        server = PerseusServer()
        server.register_job("j", small_dag, tau=0.02)
        with pytest.raises(ServerError, match="timed out"):
            server.wait_ready("j", timeout_s=0.05)
        # The job is not poisoned: characterization can still land.
        assert not server.is_ready("j")

    def test_straggler_during_characterization_applies(
            self, small_dag, small_profile, monkeypatch):
        """A ``set_straggler`` racing the frontier crawl must stick."""
        import repro.runtime.server as server_mod

        release = threading.Event()
        entered = threading.Event()
        real = server_mod.characterize_frontier

        def gated(*args, **kwargs):
            entered.set()
            assert release.wait(30.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_mod, "characterize_frontier", gated)
        # A private planner: the process-wide default_planner() may
        # already hold this frontier, which would skip the crawl.
        from repro.api import Planner

        server = PerseusServer(planner=Planner())
        server.register_job("j", small_dag, tau=0.02)
        server.submit_profile("j", small_profile, blocking=False)
        assert entered.wait(30.0)
        # Mid-crawl: the notification must not be dropped.
        server.set_straggler("j", accelerator_id=0, delay_s=0.0,
                             degree=1.4)
        release.set()
        frontier = server.wait_ready("j", timeout_s=120.0)
        from repro.core.unified import energy_optimal_iteration_time

        expected = energy_optimal_iteration_time(
            frontier, 1.4 * frontier.t_min)
        sched = server.current_schedule("j")
        assert sched.iteration_time == pytest.approx(expected)
        assert sched.iteration_time > frontier.t_min


# ------------------------------------------------------------ engine in vivo

class TestSessionDriftLoop:
    def test_throttle_detect_replan_restart_recover(self):
        from repro.models.registry import build_model
        from repro.partition.algorithms import partition_model
        from repro.gpu.specs import A100_PCIE
        from repro.runtime.engine import TrainingEngine, TrainingSession

        model = build_model("bert-large", 2)
        part = partition_model(model, 2, A100_PCIE)
        eng = TrainingEngine(model, part, A100_PCIE, num_microbatches=4,
                             freq_stride=24, iterations_per_freq=1)
        session = TrainingSession(engine=eng, server=PerseusServer(),
                                  tau=0.02)
        policy = DriftPolicy(patience=2, replan_rate=1.0,
                             replan_burst=4, backoff_base_s=1.0,
                             probe_after_steps=6)
        for _ in range(100):
            if session.step().phase == "optimized":
                break
        session.enable_drift(policy=policy)
        session.step()
        planned = session.history[-1].iteration_time

        eng.set_stage_slowdown(1, 1.3)
        replanned = False
        for _ in range(12):
            session.step()
            if (session.last_drift_action or {}).get("replanned"):
                replanned = True
                break
        assert replanned
        stats = session.server.drift_stats()[session.job_id]
        assert stats["replans"] >= 1

        # Checkpoint/restart: default clocks come back, the held
        # decision is re-adopted immediately.
        action = session.restart()
        assert action is not None and action["replanned"]
        assert action["reason"] == "readopt"

        # The fault clears; the probe rediscovers the fast baseline.
        eng.set_stage_slowdown(1, 1.0)
        for _ in range(40):
            session.step()
            if session.server.drift_stats()[session.job_id]["recoveries"]:
                break
        stats = session.server.drift_stats()[session.job_id]
        assert stats["recoveries"] >= 1
        assert stats["guardrail_rejections"] == 0
        settled = session.history[-1].iteration_time
        assert settled <= planned * 1.05


# ----------------------------------------------------------- fleet injection

class TestFleetOnlineInjection:
    @pytest.fixture(scope="class")
    def trace(self):
        from repro.fleet import synthetic_trace

        return synthetic_trace(["bert-large"], 3, seed=7, stages=2,
                               microbatches=4, freq_stride=32)

    def test_driver_matches_baked_events_bit_for_bit(self, trace):
        from repro.drift import ScenarioDriver
        from repro.fleet import FleetSimulator, FleetTrace

        sc = thermal_ramp(peak=1.3, start_s=5.0, ramp_steps=1,
                          step_s=10.0, hold_s=20.0)
        job_id = trace.jobs[0].job_id
        baked = FleetTrace(jobs=trace.jobs, events=tuple(sorted(
            [*trace.events, *sc.to_events(job_id)],
            key=lambda event: event.time_s)))
        offline = FleetSimulator(baked).run()

        driver = ScenarioDriver(job_id, sc)
        sim = FleetSimulator(trace, observers=[driver])
        online = sim.run()
        assert online.to_dict() == offline.to_dict()
        assert sim.drift_stats["replans"] >= 1
        assert sim.drift_stats["notifications"] == driver.applied

    def test_set_straggler_outside_run_raises(self, trace):
        from repro.fleet import FleetSimulator

        sim = FleetSimulator(trace)
        with pytest.raises(SimulationError):
            sim.schedule_wake(10.0)
        with pytest.raises(SimulationError):
            sim.set_straggler(trace.jobs[0].job_id, 1.3)

    def test_online_unknown_job_raises(self, trace):
        from repro.drift import ScenarioDriver
        from repro.fleet import FleetSimulator

        sc = stale_profile(degree=1.3)
        driver = ScenarioDriver("no-such-job", sc)
        sim = FleetSimulator(trace, observers=[driver])
        with pytest.raises(ConfigurationError, match="unknown fleet job"):
            sim.run()

    def test_wake_events_do_not_change_an_undriven_run(self, trace):
        from repro.fleet import FleetSimulator

        plain = FleetSimulator(trace).run()

        class Waker:
            def __init__(self):
                self.done = False

            def attach(self, sim):
                sim.schedule_wake(3.0)

            def __call__(self, sim, now):
                if not self.done and now >= 3.0:
                    self.done = True
                    sim.schedule_wake(now + 5.0)

        woken = FleetSimulator(trace, observers=[Waker()]).run()
        assert woken.to_dict() == plain.to_dict()


# -------------------------------------------------------------- daemon wire

class TestDaemonDriftRpc:
    def test_report_measurement_and_metrics(self):
        from repro.api import Planner, PlanSpec
        from repro.service import PlanningDaemon, ServiceClient

        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            client = ServiceClient(daemon.url, tenant="team-a",
                                   timeout_s=120.0)
            spec = PlanSpec("bert-large", gpu="a100", stages=2,
                            microbatches=4, freq_stride=32)
            client.register_spec("job", spec)
            t0 = client.current_schedule("job").iteration_time
            for _ in range(4):
                action = client.report_measurement("job", t0 * 1.3)
                if action["replanned"]:
                    break
            assert action["replanned"]
            restart = client.notify_restart("job")
            assert restart["reason"] == "readopt"

            drift = client.stats()["drift"]
            assert drift["job"]["replans"] >= 1
            text = client.metrics_text()
            assert 'repro_drift_reports_total{state="tracking"}' in text
            assert 'repro_drift_replans_total{reason="drift"} 1' in text
            assert "repro_drift_loop_total" in text

    def test_tenant_isolation_of_drift_stats(self):
        from repro.api import Planner, PlanSpec
        from repro.service import PlanningDaemon, ServiceClient

        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            a = ServiceClient(daemon.url, tenant="team-a",
                              timeout_s=120.0)
            b = ServiceClient(daemon.url, tenant="team-b",
                              timeout_s=120.0)
            spec = PlanSpec("bert-large", gpu="a100", stages=2,
                            microbatches=4, freq_stride=32)
            a.register_spec("job", spec)
            t0 = a.current_schedule("job").iteration_time
            a.report_measurement("job", t0)
            assert "job" in a.stats()["drift"]
            assert b.stats()["drift"] == {}
