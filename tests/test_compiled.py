"""Flat-array kernel vs the seed dict oracle in ``tests/reference/``.

The compiled hot path must be *bit-identical* to the preserved seed
implementation: same frontier points, same durations, same realized
clocks, float for float.  These tests pin that contract across
homogeneous, mixed-GPU and straggler (slow-silicon stage) pipelines,
plus unit coverage for :class:`~repro.graph.compiled.CompiledDag`,
:class:`~repro.graph.maxflow.FlowArena` reset/reuse and the shared
bounded-flow core against the seed reference solver.
"""

from __future__ import annotations

import random
from array import array

import pytest

import repro.graph.compiled as compiled_mod
from repro.api import Planner, PlanSpec
from repro.core.costmodel import build_cost_models
from repro.core.frontier import characterize_frontier
from repro.core.nextschedule import (
    CostTable,
    compiled_kernel,
    get_next_schedule,
    next_schedule_flat,
)
from repro.graph.compiled import CompiledDag
from repro.graph.edgecentric import to_edge_centric
from repro.graph.lowerbounds import (
    BoundedEdge,
    max_flow_with_lower_bounds,
    solve_bounded_arrays,
)
from repro.graph.maxflow import FlowArena
from reference import get_next_schedule_dict, seed_oracle
from reference.critical import (
    as_event_times,
    critical_edge_indices,
    event_times,
)
from reference.maxflow import (
    Dinic,
    FlowNetwork,
    max_flow_with_lower_bounds_reference,
)

#: One spec per pipeline flavor the ISSUE's equivalence suite names:
#: homogeneous, heterogeneous GPU tuple, and a straggler mix (one stage
#: on slower silicon, the SlowGPUType deployment planned natively).
SPECS = {
    "homogeneous": PlanSpec(model="gpt3-xl", gpu="a100", stages=2,
                            microbatches=4, freq_stride=8),
    "hetero": PlanSpec(model="gpt3-xl", gpu=("a100", "a40"), stages=2,
                       microbatches=4, freq_stride=8),
    "straggler": PlanSpec(model="gpt3-xl",
                          gpu=("a100", "a100", "a100", "a40"),
                          stages=4, microbatches=6, freq_stride=8),
}

_PLANNER = Planner()


def _stack(name):
    return _PLANNER.result(SPECS[name])


def _point_key(frontier):
    return [
        (p.iteration_time, p.effective_energy, p.compute_energy,
         p.durations, p.frequencies)
        for p in frontier.points
    ]


def _node_cost(stack):
    models = build_cost_models(stack.profile)
    return {
        node: models[stack.dag.nodes[node].op_key]
        for node in stack.dag.nodes
    }


class TestFrontierEquivalence:
    """Whole-crawl bit-identity: kernel vs the seed oracle."""

    @pytest.mark.parametrize("flavor", sorted(SPECS))
    def test_bit_identical_frontiers(self, flavor):
        stack = _stack(flavor)
        tau = stack.optimizer.tau
        fast = characterize_frontier(stack.dag, stack.profile, tau=tau)
        with seed_oracle():
            slow = characterize_frontier(stack.dag, stack.profile, tau=tau)
        assert slow.steps == fast.steps
        assert _point_key(slow) == _point_key(fast)
        assert fast.stats["timings"]["kernel"] == "flat"
        assert slow.stats["timings"]["kernel"] == "dict"

    def test_timings_are_recorded(self):
        stack = _stack("homogeneous")
        frontier = characterize_frontier(
            stack.dag, stack.profile, tau=stack.optimizer.tau
        )
        timings = frontier.stats["timings"]
        assert timings["cuts"] > 0
        assert timings["maxflow_s"] > 0.0
        assert timings["event_times_s"] > 0.0
        for key in ("instance_build_s", "schedule_s", "repairs"):
            assert key in timings


class TestStepEquivalence:
    """Property-style: random duration assignments, one step each."""

    @pytest.mark.parametrize("flavor", sorted(SPECS))
    def test_random_durations_step_identical(self, flavor):
        stack = _stack(flavor)
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        tau = stack.optimizer.tau
        rng = random.Random(1234)
        for _ in range(25):
            durations = {
                n: cm.t_min + rng.random() * (cm.t_max - cm.t_min)
                for n, cm in node_cost.items()
            }
            fast = get_next_schedule(ecd, durations, node_cost, tau)
            slow = get_next_schedule_dict(ecd, durations, node_cost, tau)
            assert fast == slow  # both None, or exactly equal dicts

    def test_event_pass_matches_dict_event_times(self):
        stack = _stack("homogeneous")
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        durations = {n: cm.t_max for n, cm in node_cost.items()}
        kern = CompiledDag.from_edge_centric(ecd, node_cost)
        flat = kern.event_pass(kern.durations_array(durations))
        reference = event_times(ecd, durations)
        assert as_event_times(flat) == reference
        assert flat.makespan == reference.makespan

    def test_critical_pass_matches_dict_extraction(self):
        stack = _stack("straggler")
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        kern = CompiledDag.from_edge_centric(ecd, node_cost)
        rng = random.Random(7)
        for _ in range(10):
            durations = {
                n: cm.t_min + rng.random() * (cm.t_max - cm.t_min)
                for n, cm in node_cost.items()
            }
            flat = kern.critical_pass(kern.durations_array(durations))
            assert flat.critical == critical_edge_indices(ecd, durations)

    def test_numpy_extraction_matches_flat(self, monkeypatch):
        if compiled_mod._np is None:
            pytest.skip("numpy unavailable")
        stack = _stack("homogeneous")
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        durations = {n: cm.t_max for n, cm in node_cost.items()}
        kern_flat = CompiledDag.from_edge_centric(ecd, node_cost)
        flat = kern_flat.critical_pass(kern_flat.durations_array(durations))
        monkeypatch.setattr(compiled_mod, "NUMPY_MIN_EDGES", 0)
        kern_np = CompiledDag.from_edge_centric(ecd, node_cost)
        vectorized = kern_np.critical_pass(
            kern_np.durations_array(durations)
        )
        assert vectorized.critical == flat.critical
        assert vectorized.earliest == flat.earliest
        assert vectorized.latest == flat.latest


class TestCompiledDag:
    def test_makespan_matches_dag_iteration_time(self):
        stack = _stack("homogeneous")
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        kern = CompiledDag.from_edge_centric(ecd, node_cost)
        durations = {n: cm.t_max for n, cm in node_cost.items()}
        assert kern.makespan(kern.durations_array(durations)) == \
            stack.dag.iteration_time(durations)

    def test_forward_reuse_is_exact(self):
        stack = _stack("homogeneous")
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        kern = CompiledDag.from_edge_centric(ecd, node_cost)
        dur = kern.durations_array(
            {n: cm.t_max for n, cm in node_cost.items()}
        )
        earliest, makespan = kern.forward_pass(dur)
        reused = kern.critical_pass(dur, forward=earliest)
        fresh = kern.critical_pass(dur)
        assert reused.makespan == makespan == fresh.makespan
        assert reused.critical == fresh.critical
        assert reused.latest == fresh.latest

    def test_durations_roundtrip_and_length_check(self):
        stack = _stack("homogeneous")
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        kern = CompiledDag.from_edge_centric(ecd, node_cost)
        durations = {n: cm.t_min for n, cm in node_cost.items()}
        arr = kern.durations_array(durations)
        assert kern.durations_dict(arr) == durations
        with pytest.raises(ValueError):
            kern.makespan(arr[:-1])

    def test_kernel_cached_per_cost_mapping(self):
        stack = _stack("homogeneous")
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        first = compiled_kernel(ecd, node_cost)
        assert compiled_kernel(ecd, node_cost) is first
        other_cost = dict(node_cost)
        assert compiled_kernel(ecd, other_cost) is not first

    def test_baked_bounds_require_cost_models(self):
        stack = _stack("homogeneous")
        node_cost = _node_cost(stack)
        ecd = to_edge_centric(stack.dag)
        bare = CompiledDag.from_edge_centric(ecd)
        assert bare.t_min is None
        from repro.exceptions import OptimizationError

        costs = [node_cost[c] for c in range(bare.num_comps)]
        dur = bare.durations_array(
            {n: cm.t_max for n, cm in node_cost.items()}
        )
        with pytest.raises(OptimizationError):
            next_schedule_flat(bare, dur, costs, 1e-3)


class TestCostTable:
    def test_entries_match_direct_calls(self):
        stack = _stack("homogeneous")
        node_cost = _node_cost(stack)
        costs = [node_cost[c] for c in range(len(node_cost))]
        tau = 1e-3
        table = CostTable(costs, tau)
        for comp, cm in enumerate(costs):
            t = cm.t_max
            entry = table.entry(comp, t)
            assert entry == (
                cm.can_speed_up(t, tau), cm.can_slow_down(t, tau),
                cm.speedup_cost(t, tau), cm.slowdown_gain(t, tau),
            )
            assert table.entry(comp, t) is entry  # memoized


def _random_bounded_instance(rng):
    n = rng.randint(2, 8)
    edges = []
    for _ in range(rng.randint(1, 16)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        ub = rng.uniform(0.5, 20.0)
        lb = rng.uniform(0.0, ub) if rng.random() < 0.4 else 0.0
        edges.append(BoundedEdge(u, v, lb, ub))
    return n, edges


class TestFlowArena:
    def test_solve_matches_seed_reference_solver(self):
        rng = random.Random(99)
        arena = FlowArena()
        checked = 0
        for _ in range(120):
            n, edges = _random_bounded_instance(rng)
            if not edges:
                continue
            s, t = 0, n - 1
            try:
                reference = max_flow_with_lower_bounds_reference(
                    n, edges, s, t
                )
                ref_err = None
            except Exception as exc:  # InfeasibleFlowError
                reference, ref_err = None, exc
            try:
                ours = max_flow_with_lower_bounds(n, edges, s, t,
                                                  arena=arena)
                our_err = None
            except Exception as exc:
                ours, our_err = None, exc
            if ref_err is not None:
                assert our_err is not None
                assert getattr(our_err, "violating_set", None) == \
                    getattr(ref_err, "violating_set", None)
                continue
            checked += 1
            assert ours.max_flow == reference.max_flow
            assert ours.flows == reference.flows
            assert ours.source_side == reference.source_side
        assert checked > 20  # the generator produced real instances

    def test_arena_reuse_across_sizes_is_clean(self):
        arena = FlowArena()
        big = [BoundedEdge(0, 1, 0.0, 5.0), BoundedEdge(1, 2, 0.0, 3.0),
               BoundedEdge(2, 3, 0.0, 7.0)]
        small = [BoundedEdge(0, 1, 0.0, 2.0)]
        first = max_flow_with_lower_bounds(4, big, 0, 3, arena=arena)
        tiny = max_flow_with_lower_bounds(2, small, 0, 1, arena=arena)
        again = max_flow_with_lower_bounds(4, big, 0, 3, arena=arena)
        assert tiny.max_flow == pytest.approx(2.0)
        assert first.max_flow == again.max_flow == pytest.approx(3.0)
        assert first.flows == again.flows
        assert first.source_side == again.source_side

    def test_arena_max_flow_matches_dinic(self):
        rng = random.Random(5)
        arena = FlowArena()
        for _ in range(60):
            n = rng.randint(2, 9)
            arcs = []
            for _ in range(rng.randint(1, 20)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    arcs.append((u, v, rng.uniform(0.1, 30.0)))
            if not arcs:
                continue
            net = FlowNetwork(n)
            arena.reset(n)
            for u, v, c in arcs:
                net.add_edge(u, v, c)
                arena.add_edge(u, v, c)
            expected = Dinic(net).max_flow(0, n - 1)
            assert arena.max_flow(0, n - 1) == expected
            # and the final-BFS level mask equals the reference residual
            # reachability
            assert {i for i in range(n) if arena.level_mask()[i]} == \
                net.reachable_from(0)

    def test_level_mask_matches_reachable_mask(self):
        arena = FlowArena()
        arena.reset(4)
        arena.add_edge(0, 1, 1.0)
        arena.add_edge(1, 2, 0.5)
        arena.add_edge(2, 3, 1.0)
        arena.max_flow(0, 3)
        assert arena.level_mask() == arena.reachable_mask(0)

    def test_need_flows_false_skips_flow_extraction(self):
        edges = [BoundedEdge(0, 1, 1.0, 4.0), BoundedEdge(1, 2, 0.0, 4.0)]
        flow, flows, mask = solve_bounded_arrays(
            3, [0, 1], [1, 2], [1.0, 0.0], [4.0, 4.0], 0, 2,
            need_flows=False,
        )
        assert flows is None and flow == 0.0
        full = max_flow_with_lower_bounds(3, edges, 0, 2)
        assert {n for n in range(3) if mask[n]} == full.source_side


class TestPlanReportTimings:
    def test_perseus_report_carries_timings(self):
        planner = Planner()
        report = planner.plan(SPECS["homogeneous"])
        assert report.timings is not None
        assert report.timings["kernel"] == "flat"
        assert "timings" not in report.to_dict()

    def test_frontier_free_strategy_has_none(self):
        planner = Planner()
        report = planner.plan(SPECS["homogeneous"].replace(strategy="max-freq"))
        assert report.timings is None
