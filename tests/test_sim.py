"""Execution simulator: dependency order, Eq. 3 accounting, stragglers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.pipeline.dag import build_pipeline_dag
from repro.pipeline.schedules import schedule_1f1b
from repro.sim.executor import (
    execute,
    execute_frequency_plan,
    max_frequency_plan,
    min_energy_plan,
)
from repro.sim.timeline import extract_timeline


@pytest.fixture(scope="module")
def dag():
    return build_pipeline_dag(schedule_1f1b(4, 6))


def uniform(dag, duration=1.0, power=100.0):
    return (
        {n: duration for n in dag.nodes},
        {n: power for n in dag.nodes},
    )


def throttled(dag, execution, slowdown, power_scale=1.0):
    """``execution`` replayed on a throttled replica: every computation
    stretched by ``slowdown``, its power scaled by
    ``power_scale / slowdown`` (1.0 keeps each computation's energy)."""
    return execute(
        dag,
        {r.node: r.duration * slowdown for r in execution.records},
        {r.node: r.power_w * power_scale / slowdown
         for r in execution.records},
        execution.p_blocking_w,
    )


class TestExecute:
    def test_dependencies_respected(self, dag):
        durations, powers = uniform(dag)
        execution = execute(dag, durations, powers, p_blocking_w=50.0)
        end = {r.node: r.end for r in execution.records}
        start = {r.node: r.start for r in execution.records}
        for u in dag.nodes:
            for v in dag.succ[u]:
                if v in dag.nodes:
                    assert start[v] >= end[u] - 1e-12

    def test_stage_exclusive(self, dag):
        durations, powers = uniform(dag)
        execution = execute(dag, durations, powers, p_blocking_w=50.0)
        for s in range(4):
            recs = execution.stage_records(s)
            for a, b in zip(recs, recs[1:]):
                assert b.start >= a.end - 1e-12

    def test_iteration_time_is_makespan(self, dag):
        durations, powers = uniform(dag)
        execution = execute(dag, durations, powers, p_blocking_w=50.0)
        assert execution.iteration_time == pytest.approx(
            max(r.end for r in execution.records)
        )

    def test_compute_energy_is_sum(self, dag):
        durations, powers = uniform(dag, duration=2.0, power=150.0)
        execution = execute(dag, durations, powers, p_blocking_w=50.0)
        assert execution.compute_energy() == pytest.approx(
            len(dag.nodes) * 2.0 * 150.0
        )

    def test_blocking_energy_formula(self, dag):
        """Eq. 3: blocking = P_block * (N*T - sum(t_i))."""
        durations, powers = uniform(dag)
        execution = execute(dag, durations, powers, p_blocking_w=80.0)
        t = execution.iteration_time
        busy = sum(durations.values())
        blocking = execution.price().blocking_until(t)
        assert blocking == pytest.approx(80.0 * (4 * t - busy))

    def test_blocking_energy_nonnegative(self, dag):
        durations, powers = uniform(dag)
        execution = execute(dag, durations, powers, p_blocking_w=80.0)
        price = execution.price()
        assert price.blocking_until(execution.iteration_time) >= 0

    def test_repr_prints_each_record_once(self, dag):
        durations, powers = uniform(dag)
        execution = execute(dag, durations, powers, p_blocking_w=50.0)
        assert repr(execution).count("NodeExecution(") == len(dag.nodes)
        other = execute(dag, durations, powers, p_blocking_w=50.0)
        assert other == execution

    def test_missing_node_rejected(self, dag):
        with pytest.raises(SimulationError):
            execute(dag, {0: 1.0}, {0: 100.0}, p_blocking_w=50.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_durations_hold_invariants(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        dag = build_pipeline_dag(schedule_1f1b(3, 4))
        durations = {n: float(rng.uniform(0.1, 2.0)) for n in dag.nodes}
        powers = {n: float(rng.uniform(80, 300)) for n in dag.nodes}
        execution = execute(dag, durations, powers, p_blocking_w=60.0)
        # total energy equals integral of power over N * T horizon
        total = execution.energy_at()
        t = execution.iteration_time
        manual = sum(durations[n] * powers[n] for n in dag.nodes) + 60.0 * (
            3 * t - sum(durations.values())
        )
        assert total == pytest.approx(manual, rel=1e-9)
        assert t >= max(durations.values())


class TestFrequencyPlans:
    def test_max_plan_fastest(self, dag, small_profile):
        base = execute_frequency_plan(
            dag, max_frequency_plan(dag, small_profile), small_profile
        )
        slow = execute_frequency_plan(
            dag, min_energy_plan(dag, small_profile), small_profile
        )
        assert base.iteration_time < slow.iteration_time
        assert slow.compute_energy() < base.compute_energy()

    def test_min_energy_plan_saves_energy(self, dag, small_profile):
        """§2.4: the upper-bound plan cuts energy despite waiting longer."""
        base = execute_frequency_plan(
            dag, max_frequency_plan(dag, small_profile), small_profile
        )
        slow = execute_frequency_plan(
            dag, min_energy_plan(dag, small_profile), small_profile
        )
        assert slow.energy_at() < base.energy_at()

    def test_average_power_drops(self, dag, small_profile):
        base = execute_frequency_plan(
            dag, max_frequency_plan(dag, small_profile), small_profile
        )
        slow = execute_frequency_plan(
            dag, min_energy_plan(dag, small_profile), small_profile
        )
        assert (slow.energy_at() / slow.iteration_time
                < base.energy_at() / base.iteration_time)


class TestDataParallel:
    """Replicas sync gradients at the slowest one's iteration end; each
    pays Eq. 3 up to it, which is :meth:`energy_at` at that floor."""

    def test_sync_time_is_max(self, dag):
        durations, powers = uniform(dag)
        fast = execute(dag, durations, powers, p_blocking_w=50.0)
        slow = throttled(dag, fast, 1.5)
        replicas = [fast, slow, fast]
        sync = max(r.iteration_time for r in replicas)
        assert sync == pytest.approx(1.5 * fast.iteration_time)
        assert slow.energy_at(sync) == slow.energy_at()  # nobody to wait for
        assert fast.energy_at(sync) > fast.energy_at()

    def test_total_energy_includes_waiting(self, dag):
        durations, powers = uniform(dag)
        fast = execute(dag, durations, powers, p_blocking_w=50.0)
        slow = throttled(dag, fast, 1.5)
        alone = fast.energy_at()
        waited = fast.energy_at(slow.iteration_time)
        assert waited > alone  # waited for the straggler
        assert waited - alone == pytest.approx(
            50.0 * 4 * (slow.iteration_time - fast.iteration_time))

    def test_straggler_cannot_speed_up(self, dag):
        durations, powers = uniform(dag)
        fast = execute(dag, durations, powers, p_blocking_w=50.0)
        # A floor before the iteration end cannot shorten the iteration:
        # Eq. 3 still runs to T.
        assert fast.energy_at(0.5 * fast.iteration_time) == fast.energy_at()

    def test_run_with_straggler(self, dag, small_profile):
        plan = max_frequency_plan(dag, small_profile)
        base = execute_frequency_plan(dag, plan, small_profile)
        straggler = throttled(dag, base, 1.3)
        sync = straggler.iteration_time
        assert sync == pytest.approx(base.iteration_time * 1.3)
        four = straggler.energy_at(sync) + 3 * base.energy_at(sync)
        assert four > 4 * base.energy_at()


class TestTimeline:
    def test_rows_cover_horizon(self, dag):
        durations, powers = uniform(dag)
        execution = execute(dag, durations, powers, p_blocking_w=50.0)
        rows = extract_timeline(execution)
        assert len(rows) == 4
        for row in rows:
            assert row.segments[0].start == pytest.approx(0.0)
            assert row.segments[-1].end == pytest.approx(
                execution.iteration_time
            )
            for a, b in zip(row.segments, row.segments[1:]):
                assert b.start == pytest.approx(a.end)

    def test_segment_energy_consistent(self, dag):
        durations, powers = uniform(dag, power=200.0)
        execution = execute(dag, durations, powers, p_blocking_w=50.0)
        rows = extract_timeline(execution)
        total = sum(
            seg.duration * seg.power_w for row in rows for seg in row.segments
        )
        assert total == pytest.approx(execution.energy_at(), rel=1e-9)

    def test_busy_fraction(self, dag):
        durations, powers = uniform(dag)
        execution = execute(dag, durations, powers, p_blocking_w=50.0)
        rows = extract_timeline(execution)
        last = rows[-1]  # final stage is busiest in 1F1B
        assert last.busy_fraction(execution.iteration_time) >= max(
            r.busy_fraction(execution.iteration_time) for r in rows[:-1]
        ) - 1e-9
