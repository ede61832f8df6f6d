"""The single-pass simulator is bit-identical to the seed two-pass one.

``tests/reference/sim.py`` walks the DAG with a fresh Kahn order per
pass and scans each node's profile; :mod:`repro.sim.executor` reads the
sealed DAG's cached walk and resolves each op once.  Every float must
match as ``float.hex``: the iteration time, every record's window, power
and clock, and Eq. 3 at ``T`` and at straggler floors around it.
"""

import random

import pytest

from reference import sim as ref
from repro.api import Planner, PlanSpec
from repro.gpu.specs import A100_PCIE
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model
from repro.pipeline.dag import build_pipeline_dag
from repro.pipeline.schedules import (
    schedule_1f1b,
    schedule_gpipe,
    schedule_interleaved_1f1b,
    with_data_loading,
)
from repro.profiler.measurement import Measurement, OpProfile, PipelineProfile
from repro.profiler.online import profile_constant_op, profile_pipeline
from repro.sim.executor import (
    execute,
    execute_frequency_plan,
    max_frequency_plan,
    min_energy_plan,
)

#: Straggler floors as multiples of the execution's own ``T``: below it
#: (Eq. 3 still runs to ``T``), at it, and past it.
FLOORS = (0.5, 1.0, 1.05, 1.5)


def assert_bit_identical(new, old):
    assert new.iteration_time.hex() == old.iteration_time.hex()
    assert len(new.records) == len(old.records)
    for a, b in zip(new.records, old.records):
        assert (a.node, a.instruction, a.freq_mhz) == (
            b.node, b.instruction, b.freq_mhz)
        assert [a.start.hex(), a.end.hex(), a.power_w.hex()] == [
            b.start.hex(), b.end.hex(), b.power_w.hex()]
    for stage, recs in old._by_stage.items():
        assert [r.node for r in new.stage_records(stage)] == [
            r.node for r in recs]
    assert new.energy_at().hex() == old.energy_at().hex()
    assert new.energy_at(None).hex() == old.energy_at(None).hex()
    for scale in FLOORS:
        floor = scale * old.iteration_time
        assert new.energy_at(floor).hex() == old.energy_at(floor).hex()


def random_plan(dag, profile, seed):
    """A seeded clock per computation from its op's measured ladder."""
    rng = random.Random(seed)
    return {n: rng.choice(profile.get(ins.op_key).measurements).freq_mhz
            for n, ins in dag.nodes.items()}


def check_plans(dag, profile, seeds=(0, 1, 2)):
    for new_plan, old_plan in (
        (max_frequency_plan, ref.max_frequency_plan),
        (min_energy_plan, ref.min_energy_plan),
    ):
        plan = new_plan(dag, profile)
        assert list(plan.items()) == list(old_plan(dag, profile).items())
        assert_bit_identical(execute_frequency_plan(dag, plan, profile),
                             ref.execute_frequency_plan(dag, plan, profile))
    for seed in seeds:
        plan = random_plan(dag, profile, seed)
        assert_bit_identical(execute_frequency_plan(dag, plan, profile),
                             ref.execute_frequency_plan(dag, plan, profile))


@pytest.fixture(scope="module")
def two_stage_profile():
    model = build_model("gpt3-xl", 2)
    part = partition_model(model, 2, A100_PCIE)
    profile = profile_pipeline(model, part, A100_PCIE, freq_stride=12)
    profile_constant_op(profile, 0, "dataload", duration_s=0.01)
    return profile


class TestFrequencyPlans:
    def test_1f1b(self, small_dag, small_profile):
        check_plans(small_dag, small_profile)

    def test_gpipe(self, small_profile):
        check_plans(build_pipeline_dag(schedule_gpipe(4, 6)), small_profile)

    def test_interleaved_multi_stage_devices(self, small_profile):
        """4 virtual stages on 2 devices: the device-sequencing edges
        come from a longest-path pass before the DAG is sealed."""
        dag = build_pipeline_dag(schedule_interleaved_1f1b(2, 4, num_chunks=2),
                                 device_of_stage=[0, 1, 0, 1])
        assert ref.topological_order(dag) == dag.topological_order()
        check_plans(dag, small_profile)

    def test_const_ops(self, two_stage_profile):
        dag = build_pipeline_dag(with_data_loading(schedule_1f1b(2, 3)))
        check_plans(dag, two_stage_profile)

    def test_mixed_gpu_profile(self):
        stack = Planner().result(PlanSpec(
            "bert-large", gpu=("a100", "a40"), stages=2, microbatches=3,
            freq_stride=24))
        assert stack.profile.stage_blocking_w is not None
        check_plans(stack.dag, stack.profile)

    def test_re_profiled_clocks_resolve_to_the_first_measurement(
            self, small_dag, small_profile):
        """A clock measured twice (a re-profiling round appended to the
        ladder) realizes its first measurement, as ``at_freq`` does."""
        profile = PipelineProfile(
            ops={op: OpProfile(op, list(p.measurements), p.fixed)
                 for op, p in small_profile.ops.items()},
            p_blocking_w=small_profile.p_blocking_w)
        for op_profile in profile.ops.values():
            for m in list(op_profile.measurements):
                op_profile.add(Measurement(m.freq_mhz, m.time_s * 1.01,
                                           m.energy_j * 0.99))
        check_plans(small_dag, profile)


class TestExecute:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_durations(self, seed):
        rng = random.Random(seed)
        stages = rng.randint(1, 5)
        dag = build_pipeline_dag(schedule_1f1b(stages, rng.randint(1, 7)))
        durations = {n: rng.uniform(0.01, 2.0) for n in dag.nodes}
        powers = {n: rng.uniform(60.0, 400.0) for n in dag.nodes}
        freqs = {n: rng.choice((0, 1005, 1410)) for n in dag.nodes}
        assert_bit_identical(
            execute(dag, durations, powers, 75.0, freqs=freqs),
            ref.execute(dag, durations, powers, 75.0, freqs=freqs))
        assert dag.iteration_time(durations).hex() == ref.iteration_time(
            dag, durations).hex()
        assert dag.earliest_start_times(durations) == \
            ref.earliest_start_times(dag, durations)

    def test_stage_blocking_powers(self, small_dag):
        rng = random.Random(7)
        durations = {n: rng.uniform(0.1, 1.0) for n in small_dag.nodes}
        powers = {n: rng.uniform(100.0, 300.0) for n in small_dag.nodes}
        blocking = {s: 50.0 + 10.0 * s for s in range(4)}
        assert_bit_identical(
            execute(small_dag, durations, powers, 65.0,
                    stage_blocking_w=blocking),
            ref.execute(small_dag, durations, powers, 65.0,
                        stage_blocking_w=blocking))
