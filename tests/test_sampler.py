"""The ``random-sampler`` bounds strategy: seeded best-of-N sampling."""

import pytest

from repro.api import PlanSpec, Planner, get_strategy, list_strategies
from repro.baselines.sampler import RandomSamplerStrategy
from repro.exceptions import ConfigurationError
from repro.sim.executor import execute_frequency_plan


@pytest.fixture(scope="module")
def sampler_planner():
    return Planner()


@pytest.fixture(scope="module")
def spec():
    return PlanSpec("bert-large", stages=2, microbatches=3, freq_stride=24,
                    strategy="random-sampler")


def test_registered_and_listed():
    assert "random-sampler" in list_strategies()
    assert get_strategy("random-sampler").name == "random-sampler"


def test_plans_are_seed_deterministic(sampler_planner, spec):
    ctx = sampler_planner.context(spec)
    strategy = RandomSamplerStrategy(samples=8, seed=3)
    assert strategy.plan(ctx) == strategy.plan(ctx)
    other_seed = RandomSamplerStrategy(samples=8, seed=4)
    assert strategy.plan(ctx) != other_seed.plan(ctx)


def test_covers_every_node_with_profiled_clocks(sampler_planner, spec):
    stack = sampler_planner.result(spec)
    ctx = sampler_planner.context(spec)
    plan = RandomSamplerStrategy(samples=4, seed=0).plan(ctx)
    assert set(plan) == set(stack.dag.nodes)
    for node, freq in plan.items():
        op_profile = stack.profile.get(stack.dag.nodes[node].op_key)
        assert any(m.freq_mhz == freq for m in op_profile.measurements)


def test_best_of_n_improves_with_more_samples(sampler_planner, spec):
    ctx = sampler_planner.context(spec)
    stack = sampler_planner.result(spec)

    def energy(samples):
        plan = RandomSamplerStrategy(samples=samples, seed=0).plan(ctx)
        return execute_frequency_plan(
            stack.dag, plan, stack.profile
        ).energy_at()

    assert energy(64) <= energy(1)


def test_straggler_target_is_respected_when_met(sampler_planner, spec):
    stack = sampler_planner.result(spec)
    baseline = sampler_planner.baseline_execution(spec)
    target = baseline.iteration_time * 1.5  # generous: samples will meet it
    ctx = sampler_planner.context(spec, straggler_time=target)
    plan = RandomSamplerStrategy(samples=32, seed=0).plan(ctx)
    execution = execute_frequency_plan(stack.dag, plan, stack.profile)
    assert execution.iteration_time <= target + 1e-9


def test_sweep_row_is_a_lower_bound_vs_perseus(sampler_planner, spec):
    rows = sampler_planner.sweep([
        spec, spec.replace(strategy="perseus"),
    ])
    sampled, perseus = rows
    assert sampled.ok and perseus.ok
    # Blind sampling never beats the frontier crawl at equal slowdown
    # tolerance; as a bound it just has to land in the feasible band.
    assert sampled.energy_j > 0
    assert sampled.baseline_energy_j == perseus.baseline_energy_j


def test_invalid_sample_count_rejected():
    with pytest.raises(ConfigurationError):
        RandomSamplerStrategy(samples=0)
