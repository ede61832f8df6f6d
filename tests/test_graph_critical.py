"""Edge-centric conversion + critical-path analysis (Figure 6 steps 2-3).

The critical-path functions are the seed reference in
``tests/reference/critical.py`` that the compiled kernel is checked
against, so they are pinned here on hand-checked DAGs.
"""

import pytest

from repro.graph.edgecentric import to_edge_centric
from repro.pipeline.dag import build_pipeline_dag
from repro.pipeline.schedules import schedule_1f1b
from reference.critical import (
    critical_computations,
    critical_edge_indices,
    critical_subgraph,
    event_times,
)


@pytest.fixture()
def simple():
    """1F1B with 2 stages, 2 microbatches; durations make stage 1 critical."""
    dag = build_pipeline_dag(schedule_1f1b(2, 2))
    ecd = to_edge_centric(dag)
    return dag, ecd


class TestEdgeCentric:
    def test_node_and_edge_counts(self, simple):
        dag, ecd = simple
        n = dag.num_computations
        assert ecd.num_nodes == 2 + 2 * n
        activity_edges = [e for e in ecd.edges if e.comp is not None]
        assert len(activity_edges) == n

    def test_activity_edges_span_in_out(self, simple):
        _, ecd = simple
        for e in ecd.edges:
            if e.comp is not None:
                assert e.u == ecd.in_node(e.comp)
                assert e.v == ecd.out_node(e.comp)

    def test_topology_is_acyclic(self, simple):
        _, ecd = simple
        order = ecd.topological_nodes()
        assert len(order) == ecd.num_nodes


class TestEventTimes:
    def test_makespan_matches_dag_iteration_time(self, simple):
        dag, ecd = simple
        durations = {n: 1.0 + 0.1 * n for n in dag.nodes}
        times = event_times(ecd, durations)
        assert times.makespan == pytest.approx(dag.iteration_time(durations))

    def test_earliest_below_latest(self, simple):
        dag, ecd = simple
        durations = {n: 1.0 for n in dag.nodes}
        times = event_times(ecd, durations)
        for node in range(ecd.num_nodes):
            assert times.earliest[node] <= times.latest[node] + 1e-12

    def test_source_and_sink_pinned(self, simple):
        dag, ecd = simple
        durations = {n: 2.0 for n in dag.nodes}
        times = event_times(ecd, durations)
        assert times.earliest[ecd.s] == 0.0
        assert times.latest[ecd.s] == pytest.approx(0.0)
        assert times.earliest[ecd.t] == pytest.approx(times.makespan)


class TestCriticality:
    def test_uniform_durations_all_critical_on_last_stage(self, simple):
        """With equal stages, the last stage's F/B chain has zero slack."""
        dag, ecd = simple
        durations = {n: 1.0 for n in dag.nodes}
        crit = critical_computations(ecd, durations)
        last_stage_nodes = {
            n for n, ins in dag.nodes.items() if ins.stage == 1
        }
        assert last_stage_nodes.issubset(crit)

    def test_bottleneck_stage_is_critical(self, simple):
        dag, ecd = simple
        durations = {
            n: (5.0 if dag.nodes[n].stage == 1 else 1.0) for n in dag.nodes
        }
        crit = critical_computations(ecd, durations)
        for n, ins in dag.nodes.items():
            if ins.stage == 1:
                assert n in crit

    def test_light_stage_steady_state_not_critical(self):
        dag = build_pipeline_dag(schedule_1f1b(2, 4))
        ecd = to_edge_centric(dag)
        durations = {
            n: (5.0 if dag.nodes[n].stage == 1 else 1.0) for n in dag.nodes
        }
        crit = critical_computations(ecd, durations)
        stage0 = [n for n, ins in dag.nodes.items() if ins.stage == 0]
        # some stage-0 computations must have slack
        assert any(n not in crit for n in stage0)

    def test_critical_subgraph_contains_endpoints(self, simple):
        dag, ecd = simple
        durations = {n: 1.0 for n in dag.nodes}
        edges, nodes, _ = critical_subgraph(ecd, durations)
        assert ecd.s in nodes
        assert ecd.t in nodes
        assert edges

    def test_critical_path_spans_source_to_sink(self, simple):
        """The critical edges must contain an s->t path."""
        dag, ecd = simple
        durations = {n: 1.0 + 0.01 * n for n in dag.nodes}
        crit = critical_edge_indices(ecd, durations)
        adj = {}
        for idx in crit:
            e = ecd.edges[idx]
            adj.setdefault(e.u, []).append(e.v)
        seen = {ecd.s}
        stack = [ecd.s]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert ecd.t in seen

    def test_slack_positive_for_noncritical(self, simple):
        dag, ecd = simple
        durations = {
            n: (5.0 if dag.nodes[n].stage == 1 else 1.0) for n in dag.nodes
        }
        times = event_times(ecd, durations)
        crit = set(critical_edge_indices(ecd, durations, times))
        for idx, e in enumerate(ecd.edges):
            d = durations[e.comp] if e.comp is not None else 0.0
            slack = times.slack(e, d)
            if idx in crit:
                assert slack <= 1e-7
            else:
                assert slack > 0
