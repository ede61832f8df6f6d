"""End-to-end integration: public API, cross-module consistency, viz."""

import pytest

import repro
from repro.api import default_planner
from repro.baselines import max_frequency_plan
from repro.sim import execute_frequency_plan
from repro.viz import render_comparison, render_timeline


@pytest.fixture(scope="module")
def plan():
    return default_planner().build_stack(
        "gpt3-xl", gpu="a100", stages=4, microbatches=6, freq_stride=16,
    )


class TestPublicAPI:
    def test_plan_pipeline_returns_everything(self, plan):
        assert plan.model.params > 1e9
        assert plan.partition.num_stages == 4
        assert plan.frontier.t_min < plan.frontier.t_star
        assert plan.dag.num_microbatches == 6

    def test_version(self):
        assert repro.__version__

    def test_planned_vs_realized_consistency(self, plan):
        """Frontier points replay on the simulator within realization gap."""
        for point in (plan.frontier.points[0], plan.frontier.points[-1]):
            realized = execute_frequency_plan(
                plan.dag, point.frequencies, plan.profile
            )
            # realized clocks are never slower than planned durations
            assert realized.iteration_time <= point.iteration_time * 1.001

    def test_headline_claim(self, plan):
        """The abstract: energy savings with no throughput loss."""
        base = execute_frequency_plan(
            plan.dag, max_frequency_plan(plan.dag, plan.profile), plan.profile
        )
        perseus = execute_frequency_plan(
            plan.dag,
            plan.optimizer.schedule_for_straggler(None).frequencies,
            plan.profile,
        )
        assert perseus.iteration_time <= base.iteration_time * 1.001
        savings = 1 - perseus.energy_at() / base.energy_at()
        assert savings > 0.05
        # and average power draw drops accordingly (§1)
        assert (perseus.energy_at() / perseus.iteration_time
                < base.energy_at() / base.iteration_time)


class TestVisualization:
    def test_render_timeline(self, plan):
        base = execute_frequency_plan(
            plan.dag, max_frequency_plan(plan.dag, plan.profile), plan.profile
        )
        out = render_timeline(base, width=80)
        lines = out.splitlines()
        assert len(lines) == 5  # header + 4 stages
        assert all(line.startswith("S") for line in lines[1:])

    def test_render_comparison_mentions_savings(self, plan):
        base = execute_frequency_plan(
            plan.dag, max_frequency_plan(plan.dag, plan.profile), plan.profile
        )
        opt = execute_frequency_plan(
            plan.dag,
            plan.optimizer.schedule_for_straggler(None).frequencies,
            plan.profile,
        )
        out = render_comparison(base, opt, width=60)
        assert "% saved" in out


class TestCrossGPU:
    @pytest.mark.parametrize("gpu", ["a100", "a40", "h100", "v100"])
    def test_all_gpus_plan(self, gpu):
        result = default_planner().build_stack(
            "bert-large", gpu=gpu, stages=2, microbatches=3, freq_stride=24,
        )
        assert result.frontier.t_min < result.frontier.t_star
        times = [p.iteration_time for p in result.frontier.points]
        assert times == sorted(times)

    def test_3d_parallelism(self):
        """§4.4: TP shards profile one GPU per stage and replicate."""
        result = default_planner().build_stack(
            "gpt3-6.7b", gpu="a40", stages=4, microbatches=4,
            tensor_parallel=2, freq_stride=24,
        )
        assert result.frontier.t_min < result.frontier.t_star
