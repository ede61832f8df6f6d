"""Robustness and degenerate cases: noise, tiny pipelines, determinism."""

import pytest

from repro.core.frontier import characterize_frontier
from repro.gpu.specs import A100_PCIE
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model
from repro.pipeline.dag import build_pipeline_dag
from repro.pipeline.schedules import schedule_1f1b
from repro.profiler.online import profile_pipeline
from repro.sim.executor import execute_frequency_plan, max_frequency_plan
from reference.noisy import noisy_profile_pipeline


@pytest.fixture(scope="module")
def model_and_partition():
    model = build_model("gpt3-xl", 2)
    return model, partition_model(model, 2, A100_PCIE)


class TestProfilingNoise:
    """Inaccurate profiles should degrade gracefully, not break planning."""

    @pytest.mark.parametrize("noise", [0.005, 0.02])
    def test_noisy_profile_still_plans(self, model_and_partition, noise):
        model, part = model_and_partition
        profile = noisy_profile_pipeline(
            model, part, A100_PCIE, freq_stride=8, noise=noise, seed=11
        )
        dag = build_pipeline_dag(schedule_1f1b(2, 3))
        frontier = characterize_frontier(dag, profile, tau=0.01)
        times = [p.iteration_time for p in frontier.points]
        effs = [p.effective_energy for p in frontier.points]
        assert times == sorted(times)
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_noisy_savings_within_band_of_clean(self, model_and_partition):
        model, part = model_and_partition
        dag = build_pipeline_dag(schedule_1f1b(2, 3))

        def savings(noise, seed=3):
            profile = noisy_profile_pipeline(
                model, part, A100_PCIE, freq_stride=8, noise=noise, seed=seed
            )
            frontier = characterize_frontier(dag, profile, tau=0.01)
            base = execute_frequency_plan(
                dag, max_frequency_plan(dag, profile), profile
            )
            perseus = execute_frequency_plan(
                dag, frontier.schedule_for(None).frequencies, profile
            )
            return 1 - perseus.energy_at() / base.energy_at()

        clean = savings(0.0)
        noisy = savings(0.01)
        assert abs(clean - noisy) < 0.08

    def test_determinism_without_noise(self, model_and_partition):
        model, part = model_and_partition
        dag = build_pipeline_dag(schedule_1f1b(2, 3))
        results = []
        for _ in range(2):
            profile = profile_pipeline(model, part, A100_PCIE, freq_stride=8)
            frontier = characterize_frontier(dag, profile, tau=0.01)
            results.append(
                [(p.iteration_time, p.effective_energy) for p in frontier.points]
            )
        assert results[0] == results[1]


class TestDegenerateConfigurations:
    def test_single_stage_single_microbatch(self):
        """N=1, M=1 degenerates to Zeus's single-GPU problem: the frontier
        is exactly the computation's own Pareto curve."""
        model = build_model("bert-large", 4)
        part = partition_model(model, 1, A100_PCIE)
        profile = profile_pipeline(model, part, A100_PCIE, freq_stride=8)
        dag = build_pipeline_dag(schedule_1f1b(1, 1))
        frontier = characterize_frontier(dag, profile, tau=0.002)
        assert frontier.t_min < frontier.t_star
        # at T*, the two computations sit at their min-energy durations
        tstar = frontier.min_energy_schedule
        for n in dag.nodes:
            op = profile.get(dag.nodes[n].op_key)
            assert tstar.durations[n] == pytest.approx(
                op.min_energy.time_s, rel=1e-6
            )

    def test_single_microbatch_deep_pipeline(self):
        model = build_model("gpt3-xl", 2)
        part = partition_model(model, 4, A100_PCIE)
        profile = profile_pipeline(model, part, A100_PCIE, freq_stride=12)
        dag = build_pipeline_dag(schedule_1f1b(4, 1))
        frontier = characterize_frontier(dag, profile, tau=0.01)
        # M=1: everything is on the single chain -> all critical, frontier
        # still spans the per-computation ranges
        assert frontier.t_star / frontier.t_min > 1.1

    def test_many_stages_few_microbatches(self):
        model = build_model("gpt3-175b", 1)
        part = partition_model(model, 8, A100_PCIE)
        profile = profile_pipeline(model, part, A100_PCIE,
                                   tensor_parallel=8, freq_stride=16)
        dag = build_pipeline_dag(schedule_1f1b(8, 2))
        frontier = characterize_frontier(dag, profile, tau=0.02)
        assert len(frontier.points) > 3


class TestFailureInjection:
    def test_straggler_power_scaling_variants(self, small_dag, small_profile):
        """Throttled GPUs may keep or drop per-computation energy."""
        from repro.sim.executor import (
            execute,
            execute_frequency_plan,
            max_frequency_plan as mfp,
        )

        base = execute_frequency_plan(
            small_dag, mfp(small_dag, small_profile), small_profile)

        def straggler(power_scale):
            return execute(
                small_dag,
                {r.node: r.duration * 1.3 for r in base.records},
                {r.node: r.power_w * power_scale / 1.3 for r in base.records},
                small_profile.p_blocking_w,
            )

        const_energy, hotter = straggler(1.0), straggler(1.2)
        sync = hotter.iteration_time
        assert sync == const_energy.iteration_time
        assert hotter.energy_at(sync) + base.energy_at(sync) > \
            const_energy.energy_at(sync) + base.energy_at(sync)

    def test_extreme_straggler_does_not_break_lookup(self, small_optimizer):
        sched = small_optimizer.schedule_for_straggler(1e9)
        assert sched is small_optimizer.frontier.points[-1]

    def test_mid_characterization_queries_fail_cleanly(self, small_dag):
        from repro.exceptions import ServerError
        from repro.runtime.server import PerseusServer

        server = PerseusServer()
        server.register_job("j", small_dag)
        with pytest.raises(ServerError):
            server.current_schedule("j")
