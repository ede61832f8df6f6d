"""Max-flow with lower bounds (Algorithm 3): feasibility, cuts, repairs.

The production solve returns the min cut's source side only; flows and
the flow value come from the seed transform in ``tests/reference/``,
whose source side the production mask must equal on every instance.
"""

import random

import pytest

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.graph import lowerbounds
from repro.graph.lowerbounds import relaxed_min_cut, solve_bounded_arrays
from repro.graph.maxflow import INF, FlowArena
from adapters import source_side
from reference.maxflow import (
    BoundedEdge,
    max_flow_with_lower_bounds_reference,
)


def max_flow_with_lower_bounds(num_nodes, edges, s, t):
    """The reference solve, its cut checked against the production mask."""
    try:
        ours = source_side(num_nodes, edges, s, t)
    except InfeasibleFlowError as our_err:
        with pytest.raises(InfeasibleFlowError) as ref_err:
            max_flow_with_lower_bounds_reference(num_nodes, edges, s, t)
        assert our_err.violating_set == ref_err.value.violating_set
        raise
    result = max_flow_with_lower_bounds_reference(num_nodes, edges, s, t)
    assert ours == result.source_side
    return result


class TestFeasibility:
    def test_plain_maxflow_when_no_lower_bounds(self):
        edges = [BoundedEdge(0, 1, 0.0, 5.0), BoundedEdge(1, 2, 0.0, 3.0)]
        res = max_flow_with_lower_bounds(3, edges, 0, 2)
        assert res.max_flow == pytest.approx(3.0)

    def test_lower_bound_forces_flow(self):
        # chain with lb 2 on the first edge; both edges can carry it
        edges = [BoundedEdge(0, 1, 2.0, 5.0), BoundedEdge(1, 2, 0.0, 5.0)]
        res = max_flow_with_lower_bounds(3, edges, 0, 2)
        assert res.flows[0] >= 2.0 - 1e-9

    def test_infeasible_chain_detected(self):
        # lb 5 cannot squeeze through downstream ub 2
        edges = [BoundedEdge(0, 1, 5.0, 6.0), BoundedEdge(1, 2, 0.0, 2.0)]
        with pytest.raises(InfeasibleFlowError) as err:
            max_flow_with_lower_bounds(3, edges, 0, 2)
        assert err.value.violating_set is not None

    def test_flows_respect_bounds(self):
        edges = [
            BoundedEdge(0, 1, 1.0, 4.0),
            BoundedEdge(0, 2, 0.0, 3.0),
            BoundedEdge(1, 3, 0.0, 4.0),
            BoundedEdge(2, 3, 1.0, 3.0),
        ]
        res = max_flow_with_lower_bounds(4, edges, 0, 3)
        for e, f in zip(edges, res.flows):
            assert e.lb - 1e-9 <= f <= e.ub + 1e-9

    def test_conservation_at_internal_nodes(self):
        edges = [
            BoundedEdge(0, 1, 1.0, 5.0),
            BoundedEdge(1, 2, 0.0, 2.0),
            BoundedEdge(1, 3, 0.0, 5.0),
            BoundedEdge(2, 3, 0.0, 5.0),
        ]
        res = max_flow_with_lower_bounds(4, edges, 0, 3)
        for node in (1, 2):
            inflow = sum(f for e, f in zip(edges, res.flows) if e.v == node)
            outflow = sum(f for e, f in zip(edges, res.flows) if e.u == node)
            assert inflow == pytest.approx(outflow, abs=1e-6)


class TestMinCut:
    def test_cut_value_with_lower_bound_credit(self):
        """Cut capacity = sum(forward ub) - sum(backward lb)."""
        # Diamond: cutting {0,2} crosses 0->1 (ub 2) fwd and 1->2 (lb 1) bwd.
        edges = [
            BoundedEdge(0, 1, 0.0, 2.0),
            BoundedEdge(0, 2, 0.0, 4.0),
            BoundedEdge(1, 2, 1.0, 3.0),
            BoundedEdge(1, 3, 0.0, 4.0),
            BoundedEdge(2, 3, 0.0, 4.0),
        ]
        res = max_flow_with_lower_bounds(4, edges, 0, 3)
        fwd, bwd = res.cut_edges(edges)
        cut_value = sum(edges[i].ub for i in fwd) - sum(edges[i].lb for i in bwd)
        assert res.max_flow == pytest.approx(cut_value, abs=1e-6)

    def test_source_side_contains_source(self):
        edges = [BoundedEdge(0, 1, 0.0, 1.0)]
        res = max_flow_with_lower_bounds(2, edges, 0, 1)
        assert 0 in res.source_side
        assert 1 not in res.source_side

    def test_infinite_edges_never_cut_forward(self):
        edges = [
            BoundedEdge(0, 1, 0.0, INF),
            BoundedEdge(1, 2, 0.0, 2.0),
            BoundedEdge(2, 3, 0.0, INF),
        ]
        res = max_flow_with_lower_bounds(4, edges, 0, 3)
        fwd, _ = res.cut_edges(edges)
        assert fwd == [1]
        assert res.max_flow == pytest.approx(2.0)


class TestValidation:
    def test_bad_source_sink(self):
        with pytest.raises(GraphError):
            solve_bounded_arrays(2, [], [], [], [], 0, 0)

    def test_bounds_sanity(self):
        with pytest.raises(GraphError):
            solve_bounded_arrays(2, [0], [1], [3.0], [1.0], 0, 1)
        with pytest.raises(GraphError):
            BoundedEdge(0, 1, 3.0, 1.0)
        with pytest.raises(GraphError):
            BoundedEdge(0, 1, -1.0, 1.0)


def _bounded_dag(rng, share):
    """A random bounded DAG instance shaped like a critical DAG.

    Every node lies on an ``s -> t`` path; some arcs are uncapacitated
    (dependency-like), and a ``share`` of the arcs carry a lower bound.
    Node labels are a random permutation of topological positions, so
    the topological order is not ``range(n)``.  Returns ``(n, s, t,
    edges, order)``.
    """
    n = rng.randint(6, 16)
    arcs = set()
    for pos in range(1, n - 1):
        arcs.add((rng.randrange(0, pos), pos))
        arcs.add((pos, rng.randrange(pos + 1, n)))
    for _ in range(rng.randint(0, n)):
        a, b = sorted(rng.sample(range(n), 2))
        arcs.add((a, b))
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for a, b in sorted(arcs):
        ub = INF if rng.random() < 0.25 else rng.uniform(0.5, 10.0)
        lb = 0.0
        if rng.random() < share:
            lb = rng.uniform(0.0, 5.0 if ub == INF else ub)
        edges.append(BoundedEdge(label[a], label[b], lb, ub))
    rng.shuffle(edges)
    return n, label[0], label[n - 1], edges, label


def _net_flow(arena, node):
    """Flow out of ``node`` minus flow into it, over every arc pair."""
    to, cap = arena.to, arena.cap
    out = 0.0
    for a in range(0, len(to), 2):
        flow = cap[a ^ 1]
        if to[a ^ 1] == node:
            out += flow
        if to[a] == node:
            out -= flow
    return out


class TestWarmStart:
    """The topological preflow changes the flow Dinic finishes from,
    never the residual-reachable set the cut is read from."""

    SHARES = (0.0, 0.05, 0.3, 1.0)

    @pytest.fixture
    def preflows(self, monkeypatch):
        """Flow placed by every preflow, each checked to be a valid
        ``s2 -> t2`` flow before Dinic continues from it."""
        placed = []
        original = lowerbounds._preflow

        def checked(net, order, num_edges, supply, drain, s, t, ts_arc):
            amount = original(net, order, num_edges, supply, drain, s, t,
                              ts_arc)
            for node in order:
                assert _net_flow(net, node) == pytest.approx(0.0, abs=1e-9)
            placed.append(amount)
            return amount

        monkeypatch.setattr(lowerbounds, "_preflow", checked)
        return placed

    def _instances(self):
        rng = random.Random(2312)
        for share in self.SHARES:
            for _ in range(40):
                yield _bounded_dag(rng, share)

    def test_cut_only_solve_matches_reference(self, preflows):
        feasible = infeasible = 0
        for n, s, t, edges, order in self._instances():
            args = (n, [e.u for e in edges], [e.v for e in edges],
                    [e.lb for e in edges], [e.ub for e in edges], s, t)
            try:
                reference = max_flow_with_lower_bounds_reference(
                    n, edges, s, t)
            except InfeasibleFlowError as ref_err:
                with pytest.raises(InfeasibleFlowError) as our_err:
                    solve_bounded_arrays(*args, order=order)
                assert our_err.value.violating_set == ref_err.violating_set
                infeasible += 1
                continue
            mask = solve_bounded_arrays(*args, order=order)
            assert {i for i in range(n) if mask[i]} == \
                reference.source_side
            feasible += 1
        assert feasible >= 20 and infeasible >= 20
        # The preflow must actually carry the lower bounds: on most
        # instances with any, it places flow before Dinic runs.
        assert len(preflows) >= 40
        assert sum(1 for p in preflows if p > 0.0) > 0.75 * len(preflows)

    def test_relaxed_resolve_in_place_matches_fresh_solve(self, preflows):
        arena, fresh = FlowArena(), FlowArena()
        resolved = 0
        for n, s, t, edges, order in self._instances():
            eu, ev = [e.u for e in edges], [e.v for e in edges]
            ub = [e.ub for e in edges]
            try:
                solve_bounded_arrays(n, eu, ev, [e.lb for e in edges], ub,
                                     s, t, arena=arena, order=order)
                continue
            except InfeasibleFlowError:
                pass
            mask = relaxed_min_cut(arena, ub, s, t)
            expected = solve_bounded_arrays(
                n, eu, ev, [0.0] * len(edges), ub, s, t, arena=fresh)
            assert mask == expected
            arcs = 2 * len(edges)
            assert [c.hex() for c in arena.cap[:arcs]] == \
                [c.hex() for c in fresh.cap[:arcs]]
            resolved += 1
        assert resolved >= 20


class TestNoReferenceCycles:
    """An infeasible solve's error must not outlive its handler.

    ``solve_bounded_arrays`` raises an ``InfeasibleFlowError`` for every
    infeasible instance, thousands per crawl.  An error still bound to a
    local of the raising frame ties that frame to the error's traceback
    in a cycle, keeping the crawl's frames alive until a GC pass; the
    crawl must leave nothing for the collector.  bloom-3b pp4's
    Critical DAGs branch, so every min cut goes through the flow
    network (and fast mode's contraction)."""

    @pytest.fixture(scope="class")
    def bloom_pp4(self):
        from repro.gpu.specs import A100_PCIE
        from repro.models.registry import build_model
        from repro.partition.algorithms import partition_model
        from repro.pipeline.dag import build_pipeline_dag
        from repro.pipeline.schedules import schedule_1f1b
        from repro.profiler.online import profile_pipeline

        model = build_model("bloom-3b", 4)
        partition = partition_model(model, 4, A100_PCIE)
        profile = profile_pipeline(model, partition, A100_PCIE,
                                   freq_stride=24)
        return build_pipeline_dag(schedule_1f1b(4, 4)), profile

    @pytest.mark.parametrize("exactness", ["exact", "fast"])
    def test_crawl_leaves_no_cyclic_garbage(self, bloom_pp4, exactness):
        import gc

        from repro.core.frontier import characterize_frontier

        dag, profile = bloom_pp4
        gc.collect()
        gc.disable()
        debug = gc.get_debug()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            frontier = characterize_frontier(dag, profile,
                                             exactness=exactness)
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            gc.enable()
        assert frontier.stats["timings"]["cuts"] > 0
        assert garbage == 0
