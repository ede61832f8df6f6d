"""Baselines: EnvPipe, ZeusGlobal, ZeusPerStage vs Perseus (§6.2, §6.4)."""

import pytest

from repro.api import Planner, PlanSpec
from repro.baselines.envpipe import envpipe_plan
from repro.baselines.static import max_frequency_plan, min_energy_plan
from repro.baselines.zeus_global import global_plan, zeus_global_frontier
from repro.baselines.zeus_perstage import zeus_per_stage_frontier
from repro.sim.executor import execute_frequency_plan

#: The spec the planner builds the ``small_*`` fixtures' stack from.
SMALL_SPEC = PlanSpec("gpt3-xl", stages=4, microbatches=6,
                      microbatch_size=4, freq_stride=8)


@pytest.fixture(scope="module")
def base_execution(small_dag, small_profile):
    return execute_frequency_plan(
        small_dag, max_frequency_plan(small_dag, small_profile), small_profile)


@pytest.fixture(scope="module")
def envpipe_execution(small_dag, small_profile):
    return execute_frequency_plan(
        small_dag, envpipe_plan(small_dag, small_profile), small_profile)


@pytest.fixture(scope="module")
def potential():
    """The §2.4 potential: the ``min-energy`` strategy's report."""
    return Planner().plan(SMALL_SPEC.replace(strategy="min-energy"))


class TestStatic:
    def test_potential_savings_positive_with_slowdown(self, potential):
        assert 5.0 < potential.energy_savings_pct < 50.0
        assert potential.slowdown_pct > 5.0

    def test_paper_band_a100(self, potential):
        """§2.4: A100 upper bound averages ~16%."""
        assert 10.0 < potential.energy_savings_pct < 30.0

    def test_potential_is_eq3_at_each_own_horizon(
            self, potential, base_execution, small_dag, small_profile):
        slow = execute_frequency_plan(
            small_dag, min_energy_plan(small_dag, small_profile),
            small_profile)
        assert potential.energy_j == slow.energy_at()
        assert potential.baseline_energy_j == base_execution.energy_at()
        assert potential.iteration_time_s == slow.iteration_time


class TestEnvPipe:
    def test_plan_covers_all_nodes(self, small_dag, small_profile):
        plan = envpipe_plan(small_dag, small_profile)
        assert set(plan) == set(small_dag.nodes)

    def test_last_stage_at_max_clock(self, small_dag, small_profile):
        plan = envpipe_plan(small_dag, small_profile)
        last = small_dag.num_stages - 1
        for n, ins in small_dag.nodes.items():
            if ins.stage == last:
                op = small_profile.get(ins.op_key)
                assert plan[n] == op.fastest.freq_mhz

    def test_outer_frame_at_max_clock(self, small_dag, small_profile):
        plan = envpipe_plan(small_dag, small_profile)
        for n, ins in small_dag.nodes.items():
            if ins.kind.value == "forward" and ins.microbatch == 0:
                op = small_profile.get(ins.op_key)
                assert plan[n] == op.fastest.freq_mhz

    def test_saves_energy_with_bounded_slowdown(self, base_execution,
                                                envpipe_execution):
        base, env = base_execution, envpipe_execution
        assert env.energy_at() < base.energy_at()
        assert env.iteration_time <= base.iteration_time * 1.10

    def test_strategy_matches_the_plan(self, envpipe_execution):
        report = Planner().plan(SMALL_SPEC.replace(strategy="envpipe"))
        assert report.energy_j == envpipe_execution.energy_at()
        assert 0.0 < report.energy_savings_pct
        assert report.slowdown_pct <= 10.0

    def test_perseus_saves_at_least_as_much(self, small_optimizer, small_dag,
                                            small_profile, base_execution,
                                            envpipe_execution):
        """§6.2: Perseus is a superset of EnvPipe's point solution."""
        base, env = base_execution, envpipe_execution
        perseus = execute_frequency_plan(
            small_dag,
            small_optimizer.schedule_for_straggler(None).frequencies,
            small_profile,
        )
        # compare at equal-ish time: perseus must not slow down
        assert perseus.iteration_time <= base.iteration_time * 1.005
        assert perseus.energy_at() <= env.energy_at() * 1.05

    def test_no_straggler_adaptation(self, small_dag, small_profile):
        """EnvPipe's plan is fixed regardless of stragglers."""
        plan1 = envpipe_plan(small_dag, small_profile)
        plan2 = envpipe_plan(small_dag, small_profile)
        assert plan1 == plan2


class TestZeusGlobal:
    def test_frontier_is_pareto(self, small_dag, small_profile):
        points = zeus_global_frontier(small_dag, small_profile, freq_stride=2)
        assert len(points) >= 3
        times = [p.iteration_time for p in points]
        energies = [p.energy_at() for p in points]
        assert times == sorted(times)
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_global_plan_uniform(self, small_dag, small_profile):
        plan = global_plan(small_dag, small_profile, 900)
        freqs = set(plan.values())
        assert len(freqs) <= 2  # per-op ladders may clamp differently

    def test_fastest_point_is_max_clock(self, small_dag, small_profile,
                                        base_execution):
        points = zeus_global_frontier(small_dag, small_profile, freq_stride=2)
        assert points[0].iteration_time == pytest.approx(
            base_execution.iteration_time, rel=1e-6
        )


class TestZeusPerStage:
    def test_frontier_is_pareto(self, small_dag, small_profile):
        points = zeus_per_stage_frontier(small_dag, small_profile, freq_stride=2)
        assert len(points) >= 2
        times = [p.iteration_time for p in points]
        assert times == sorted(times)

    def test_balances_forward_times(self, small_dag, small_profile):
        points = zeus_per_stage_frontier(small_dag, small_profile, freq_stride=2)
        # pick a mid-frontier point; per-stage fwd times must be closer to
        # the target than at max clocks
        mid = points[len(points) // 2]
        fwd_times = []
        for s in range(small_dag.num_stages):
            node = next(
                n for n, i in small_dag.nodes.items()
                if i.stage == s and i.kind.value == "forward"
            )
            op = small_profile.get((s, "forward"))
            fwd_times.append(op.at_freq(mid.plan[node]).time_s)
        base = [
            small_profile.get((s, "forward")).fastest.time_s
            for s in range(small_dag.num_stages)
        ]
        assert max(fwd_times) / min(fwd_times) <= max(base) / min(base) + 1e-9


class TestDominance:
    def test_perseus_pareto_dominates_zeus(self, small_optimizer, small_dag,
                                           small_profile):
        """Figure 9: Perseus dominates both Zeus baselines."""
        frontier = small_optimizer.frontier
        for points in (
            zeus_global_frontier(small_dag, small_profile, freq_stride=2),
            zeus_per_stage_frontier(small_dag, small_profile, freq_stride=2),
        ):
            for bp in points:
                ours = frontier.schedule_for(bp.iteration_time * 1.0001)
                perseus_exec = execute_frequency_plan(
                    small_dag, ours.frequencies, small_profile
                )
                sync = max(perseus_exec.iteration_time, bp.iteration_time)
                assert perseus_exec.energy_at(sync) <= (
                    bp.energy_at(sync) * 1.03
                ), f"Zeus point at t={bp.iteration_time} beats Perseus"
