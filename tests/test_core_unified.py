"""Unified straggler prescription: T_opt = min(T*, T') and Figure 3 cases."""

import pytest

from repro.core.schedule import make_schedule, realize_frequencies
from repro.core.costmodel import build_cost_models
from repro.core.unified import energy_optimal_iteration_time, select_schedule
from repro.exceptions import OptimizationError, ScheduleError


class TestEquationTwo:
    def test_no_straggler_selects_t_min(self, small_optimizer):
        frontier = small_optimizer.frontier
        assert energy_optimal_iteration_time(frontier, None) == frontier.t_min
        assert select_schedule(frontier, None) is frontier.points[0]

    def test_moderate_straggler_uses_slack(self, small_optimizer):
        """Figure 3b: T_min < T' <= T* -> run at T'."""
        frontier = small_optimizer.frontier
        t_prime = (frontier.t_min + frontier.t_star) / 2
        assert energy_optimal_iteration_time(frontier, t_prime) == pytest.approx(
            t_prime
        )
        sched = select_schedule(frontier, t_prime)
        assert frontier.t_min < sched.iteration_time <= t_prime + 1e-9

    def test_extreme_straggler_capped_at_t_star(self, small_optimizer):
        """Figure 3c: T' > T* -> never slow past the min-energy point."""
        frontier = small_optimizer.frontier
        t_prime = frontier.t_star * 2
        assert energy_optimal_iteration_time(frontier, t_prime) == pytest.approx(
            frontier.t_star
        )
        assert select_schedule(frontier, t_prime) is frontier.points[-1]

    def test_faster_than_t_min_floored(self, small_optimizer):
        frontier = small_optimizer.frontier
        assert energy_optimal_iteration_time(
            frontier, frontier.t_min / 2
        ) == pytest.approx(frontier.t_min)

    def test_rejects_nonpositive(self, small_optimizer):
        with pytest.raises(OptimizationError):
            energy_optimal_iteration_time(small_optimizer.frontier, -1.0)

    def test_deeper_straggler_never_costs_more(self, small_optimizer):
        """Energy at T_opt is non-increasing in T' (frontier monotone)."""
        frontier = small_optimizer.frontier
        prev = float("inf")
        for factor in (1.0, 1.05, 1.1, 1.2, 1.3, 1.5, 2.0):
            sched = select_schedule(frontier, frontier.t_min * factor)
            assert sched.effective_energy <= prev + 1e-9
            prev = sched.effective_energy


class TestScheduleArtifacts:
    def test_realized_frequencies_never_slower_than_plan(
        self, small_dag, small_profile
    ):
        """Algorithm 2 line 8: realized time <= planned time, per node."""
        cms = build_cost_models(small_profile)
        mid = {
            n: (cms[small_dag.nodes[n].op_key].t_min
                + cms[small_dag.nodes[n].op_key].t_max) / 2
            for n in small_dag.nodes
        }
        freqs = realize_frequencies(small_dag, mid, cms)
        for n, f in freqs.items():
            op = small_profile.get(small_dag.nodes[n].op_key)
            assert op.at_freq(f).time_s <= mid[n] + 1e-9

    def test_total_energy_accounting(self, small_dag, small_profile):
        """Eq. 3: waiting for a straggler adds P_blocking * N * (T' - T)."""
        cms = build_cost_models(small_profile)
        fastest = {n: cms[small_dag.nodes[n].op_key].t_min for n in small_dag.nodes}
        sched = make_schedule(small_dag, fastest, cms)
        t = sched.iteration_time
        blocking_w = 4 * small_profile.p_blocking_w
        e_self = sched.energy_at(blocking_w)
        e_wait = sched.energy_at(blocking_w, t * 1.2)
        assert e_wait - e_self == pytest.approx(
            small_profile.p_blocking_w * 4 * 0.2 * t, rel=1e-6
        )

    def test_missing_duration_rejected(self, small_dag, small_profile):
        cms = build_cost_models(small_profile)
        with pytest.raises(ScheduleError):
            make_schedule(small_dag, {0: 1.0}, cms)


# ---------------------------------------------------------------------------
# One decision: every straggler consumer picks and prices the same point
# ---------------------------------------------------------------------------

#: Point 1 sits 5e-8 s above a 1.15 s floor -- inside ``TIME_EPS``, so
#: the lookup counts it as meeting the floor.
BOUNDARY = [(1.0, 1000.0), (1.15 + 5e-8, 800.0), (1.3, 700.0)]
#: Per-stage blocking powers whose ``sum`` and ``math.fsum`` differ.
STAGE_BLOCKING_W = (95.1, 95.3, 70.7)


def boundary_frontier():
    from repro.core.frontier import Frontier
    from repro.core.schedule import EnergySchedule

    return Frontier(points=[
        EnergySchedule(durations={}, iteration_time=t, effective_energy=e,
                       compute_energy=e)
        for t, e in BOUNDARY
    ], tau=0.01)


def server_with(frontier):
    """A raw-parts server job whose frontier is ``frontier``."""
    from repro.pipeline.dag import build_pipeline_dag
    from repro.pipeline.schedules import schedule_1f1b
    from repro.profiler.measurement import PipelineProfile
    from repro.runtime.server import PerseusServer

    server = PerseusServer()
    server.register_job("j", build_pipeline_dag(schedule_1f1b(3, 3)))
    job = server._job("j")
    with job.lock:
        job.profile = PipelineProfile(
            p_blocking_w=sum(STAGE_BLOCKING_W) / 3,
            stage_blocking_w=dict(enumerate(STAGE_BLOCKING_W)))
        job.frontier = frontier
    job.settled.set()
    return server, job


class TestOneDecision:
    """Server, fleet, drift runner, CLI and ``select_schedule`` agree."""

    DEGREES = (1.0, 1.05, 1.2, 1.3, 2.0, 1.15)  # 1.3 = T*/T_min

    def test_every_consumer_picks_the_same_point(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.serialization import save_json
        from repro.core.unified import straggler_floor
        from repro.drift import DriftPhase, DriftScenario, simulate_scenario
        from repro.fleet import JobPowerModel

        frontier = boundary_frontier()
        assert frontier.t_star / frontier.t_min == self.DEGREES[3]
        model = JobPowerModel(frontier, STAGE_BLOCKING_W)
        path = tmp_path / "frontier.json"
        with open(path, "w", encoding="utf-8") as fp:
            save_json(frontier, fp)
        assert main(["straggler", str(path), "--degrees",
                     *map(str, self.DEGREES)]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if "degree" in line]
        assert len(rows) == len(self.DEGREES)
        for degree, row in zip(self.DEGREES, rows):
            floor = straggler_floor(frontier.t_min, degree)
            idx = frontier.index_for(floor)
            server, job = server_with(frontier)
            server.set_straggler("j", 0, 0.0, degree)
            assert server.current_schedule("j") is frontier.points[idx]
            assert model.ladder(floor)[0].index == idx
            assert select_schedule(frontier, floor) is frontier.points[idx]
            energy = frontier.points[idx].effective_energy
            assert f"effective energy {energy:.1f} J" in row
            scenario = DriftScenario(
                name="pinned", phases=(DriftPhase(0.0, degree=degree),))
            oracle = simulate_scenario(model, scenario, mode="oracle",
                                       iterations=1)
            assert oracle.energy_j == model.point(idx, floor).energy_j

            # A drift re-plan past the announced floor is priced by the
            # fleet's Eq. 3, bit for bit.
            server.enable_drift("j")
            target = 1.1 * (frontier.t_min if floor is None else floor)
            proposal = server._drift_replan(job, target, "drift", None)
            cand = model.point(frontier.index_for(target), target)
            held = model.point(idx, target)
            assert proposal.planned_time_s == cand.iteration_time_s
            assert proposal.predicted_energy_j == cand.energy_j
            assert proposal.held_predicted_energy_j == held.energy_j

    def test_straggler_floor(self):
        from repro.core.unified import straggler_floor
        from repro.exceptions import ConfigurationError

        assert straggler_floor(10.0, 1.0) is None
        assert straggler_floor(10.0, 1.2) == pytest.approx(12.0)
        with pytest.raises(ConfigurationError):
            straggler_floor(10.0, 0.99)

    def test_energy_at_is_eq3_at_the_later_time(self):
        sched = boundary_frontier().points[0]
        assert sched.energy_at(200.0) == 1000.0 + 200.0 * 1.0
        assert sched.energy_at(200.0, 1.5) == 1000.0 + 200.0 * 1.5
        assert sched.energy_at(200.0, 0.5) == sched.energy_at(200.0)
