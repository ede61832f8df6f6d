"""Max-flow solvers: cross-checked against networkx and each other."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.graph.lowerbounds import BoundedEdge, solve_bounded_arrays
from repro.graph.maxflow import FlowArena
from reference.maxflow import (
    Dinic,
    FlowNetwork,
    edmonds_karp,
    max_flow_with_lower_bounds_reference,
)


def build(num_nodes, edges):
    net = FlowNetwork(num_nodes)
    arcs = [net.add_edge(u, v, c) for u, v, c in edges]
    return net, arcs


class TestBasics:
    def test_single_edge(self):
        net, _ = build(2, [(0, 1, 5.0)])
        assert Dinic(net).max_flow(0, 1) == pytest.approx(5.0)

    def test_series_bottleneck(self):
        net, _ = build(3, [(0, 1, 5.0), (1, 2, 3.0)])
        assert Dinic(net).max_flow(0, 2) == pytest.approx(3.0)

    def test_parallel_paths(self):
        net, _ = build(4, [(0, 1, 2.0), (0, 2, 3.0), (1, 3, 2.0), (2, 3, 3.0)])
        assert Dinic(net).max_flow(0, 3) == pytest.approx(5.0)

    def test_disconnected(self):
        net, _ = build(3, [(0, 1, 5.0)])
        assert Dinic(net).max_flow(0, 2) == pytest.approx(0.0)

    def test_classic_crossover(self):
        edges = [
            (0, 1, 10.0), (0, 2, 10.0), (1, 2, 2.0),
            (1, 3, 4.0), (2, 4, 9.0), (3, 5, 10.0),
            (4, 3, 6.0), (4, 5, 10.0),
        ]
        net, _ = build(6, edges)
        # 0->1->3->5 carries 4 (cap of 1->3); 0->2->4->5 carries 9 (cap of
        # 2->4); the 1->2 shortcut is throttled by the saturated 2->4.
        assert Dinic(net).max_flow(0, 5) == pytest.approx(13.0)

    def test_source_equals_sink_rejected(self):
        net, _ = build(2, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            Dinic(net).max_flow(0, 0)

    def test_negative_capacity_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(GraphError):
            net.add_edge(0, 1, -1.0)


class TestMinCut:
    def test_reachable_set_defines_min_cut(self):
        edges = [(0, 1, 1.0), (0, 2, 10.0), (1, 3, 10.0), (2, 3, 1.0)]
        net, arcs = build(4, edges)
        value = Dinic(net).max_flow(0, 3)
        assert value == pytest.approx(2.0)
        side = net.reachable_from(0)
        cut = sum(
            c for (u, v, c), _ in zip(edges, arcs) if u in side and v not in side
        )
        assert cut == pytest.approx(value)

    def test_arc_flow_conservation(self):
        edges = [(0, 1, 4.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 3.0), (1, 2, 2.0)]
        net, arcs = build(4, edges)
        Dinic(net).max_flow(0, 3)
        flows = {e: net.arc_flow(a) for e, a in zip(edges, arcs)}
        for node in (1, 2):
            inflow = sum(f for (u, v, _), f in flows.items() if v == node)
            outflow = sum(f for (u, v, _), f in flows.items() if u == node)
            assert inflow == pytest.approx(outflow)


@st.composite
def random_flow_instance(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    num_edges = draw(st.integers(min_value=1, max_value=22))
    edges = []
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        c = draw(st.floats(min_value=0.1, max_value=50.0))
        edges.append((u, v, c))
    return n, edges


class TestAgainstReferences:
    @settings(max_examples=60, deadline=None)
    @given(random_flow_instance())
    def test_matches_networkx(self, instance):
        n, edges = instance
        if not edges:
            return
        net, _ = build(n, edges)
        ours = Dinic(net).max_flow(0, n - 1)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for u, v, c in edges:
            if g.has_edge(u, v):
                g[u][v]["capacity"] += c
            else:
                g.add_edge(u, v, capacity=c)
        theirs = nx.maximum_flow_value(g, 0, n - 1)
        assert ours == pytest.approx(theirs, rel=1e-6, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(random_flow_instance())
    def test_dinic_matches_edmonds_karp(self, instance):
        n, edges = instance
        if not edges:
            return
        net1, _ = build(n, edges)
        net2, _ = build(n, edges)
        assert Dinic(net1).max_flow(0, n - 1) == pytest.approx(
            edmonds_karp(net2, 0, n - 1), rel=1e-6, abs=1e-6
        )


def _shallow_sink_arcs(rng):
    """Arcs of a network whose sink sits a few BFS levels from the
    source while long branches hang past it: one to three two-arc
    routes ``s -> x -> t`` plus chains of up to eight nodes rooted at
    ``s`` or a route node, about half of them rejoining ``t`` (so later
    phases, with the short routes saturated, climb them), and a few
    random cross arcs."""
    n = rng.randint(12, 30)
    s, t = 0, 1
    rest = list(range(2, n))
    rng.shuffle(rest)
    k = rng.randint(1, 3)
    routes, rest = rest[:k], rest[k:]
    arcs = []
    for x in routes:
        arcs.append((s, x, rng.uniform(0.5, 5.0)))
        arcs.append((x, t, rng.uniform(0.5, 5.0)))
    while rest:
        k = rng.randint(2, 8)
        chain, rest = rest[:k], rest[k:]
        prev = rng.choice([s] + routes)
        for v in chain:
            arcs.append((prev, v, rng.uniform(0.5, 10.0)))
            prev = v
        if rng.random() < 0.5:
            arcs.append((prev, t, rng.uniform(0.5, 10.0)))
    for _ in range(rng.randint(0, n // 3)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.uniform(0.1, 5.0)))
    rng.shuffle(arcs)
    return n, s, t, arcs


@pytest.fixture
def recorded_phases(monkeypatch):
    """Every level array the reference Dinic's full BFS labels, as
    ``(level, sink)`` pairs, copied before the phase's DFS prunes it."""
    phases = []
    full_bfs = Dinic._bfs_levels

    def recording(self, s, t):
        level = full_bfs(self, s, t)
        phases.append((list(level), t))
        return level

    monkeypatch.setattr(Dinic, "_bfs_levels", recording)
    return phases


def _labels_past_sink(phases) -> bool:
    return any(level[t] >= 0 and max(level) > level[t]
               for level, t in phases)


class TestSinkLevelCutoff:
    """``FlowArena.max_flow`` stops each level BFS once the sink's level
    is complete; on networks where the full BFS labels nodes beyond the
    sink it must still match the full-BFS reference bit for bit."""

    def test_arena_matches_dinic_bit_for_bit(self, recorded_phases):
        rng = random.Random(2024)
        arena = FlowArena()
        for _ in range(80):
            n, s, t, arcs = _shallow_sink_arcs(rng)
            net = FlowNetwork(n)
            arena.reset(n)
            for u, v, c in arcs:
                net.add_edge(u, v, c)
                arena.add_edge(u, v, c)
            expected = Dinic(net).max_flow(s, t)
            assert arena.max_flow(s, t).hex() == expected.hex()
            assert [c.hex() for c in arena.cap] == \
                [c.hex() for c in net.cap]
            assert {i for i in range(n) if arena.level_mask()[i]} == \
                net.reachable_from(s)
        assert _labels_past_sink(recorded_phases)

    def test_bounded_solve_matches_reference(self, recorded_phases):
        rng = random.Random(7)
        feasible = infeasible = 0
        for _ in range(120):
            n, s, t, arcs = _shallow_sink_arcs(rng)
            share = rng.choice((0.0, 0.05, 0.3))  # arcs with a lower bound
            edges = []
            for u, v, c in arcs:
                lb = rng.uniform(0.0, c) if rng.random() < share else 0.0
                edges.append(BoundedEdge(u, v, lb, c))
            try:
                reference = max_flow_with_lower_bounds_reference(
                    n, edges, s, t)
            except InfeasibleFlowError as ref_err:
                with pytest.raises(InfeasibleFlowError) as our_err:
                    solve_bounded_arrays(
                        n, [e.u for e in edges], [e.v for e in edges],
                        [e.lb for e in edges], [e.ub for e in edges], s, t)
                assert our_err.value.violating_set == ref_err.violating_set
                infeasible += 1
                continue
            flow, flows, mask = solve_bounded_arrays(
                n, [e.u for e in edges], [e.v for e in edges],
                [e.lb for e in edges], [e.ub for e in edges], s, t)
            assert flow.hex() == reference.max_flow.hex()
            assert [f.hex() for f in flows] == \
                [f.hex() for f in reference.flows]
            assert {i for i in range(n) if mask[i]} == reference.source_side
            feasible += 1
        assert feasible > 10 and infeasible > 10
        assert _labels_past_sink(recorded_phases)
