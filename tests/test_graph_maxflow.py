"""Max-flow solvers: cross-checked against networkx and each other."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from reference.maxflow import Dinic, FlowNetwork, edmonds_karp


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
