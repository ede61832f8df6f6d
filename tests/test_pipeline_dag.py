"""Computation DAG: dependency structure, longest paths, const ops."""

import pytest
from reference.dag_v1 import build_pipeline_dag_v1

from repro.exceptions import GraphError
from repro.pipeline.dag import SINK, SOURCE, ComputationDag, build_pipeline_dag
from repro.pipeline.instructions import InstrKind, Instruction
from repro.pipeline.schedules import (
    schedule_1f1b,
    schedule_gpipe,
    schedule_interleaved_1f1b,
    with_data_loading,
)


@pytest.fixture()
def dag_2x3():
    return build_pipeline_dag(schedule_1f1b(2, 3))


def find(dag, stage, mb, kind):
    for node, ins in dag.nodes.items():
        if ins.stage == stage and ins.microbatch == mb and ins.kind is kind:
            return node
    raise AssertionError("node not found")


class TestStructure:
    def test_node_count(self, dag_2x3):
        assert dag_2x3.num_computations == 2 * 3 * 2  # stages x mb x {F,B}

    def test_forward_flows_downstream(self, dag_2x3):
        f0 = find(dag_2x3, 0, 1, InstrKind.FORWARD)
        f1 = find(dag_2x3, 1, 1, InstrKind.FORWARD)
        assert f1 in dag_2x3.succ[f0]

    def test_backward_flows_upstream(self, dag_2x3):
        b1 = find(dag_2x3, 1, 2, InstrKind.BACKWARD)
        b0 = find(dag_2x3, 0, 2, InstrKind.BACKWARD)
        assert b0 in dag_2x3.succ[b1]

    def test_last_stage_turnaround(self, dag_2x3):
        f = find(dag_2x3, 1, 0, InstrKind.FORWARD)
        b = find(dag_2x3, 1, 0, InstrKind.BACKWARD)
        assert b in dag_2x3.succ[f]

    def test_sequential_within_stage(self, dag_2x3):
        """Each stage runs one instruction at a time, in schedule order."""
        sched = schedule_1f1b(2, 3)
        for s, order in enumerate(sched):
            nodes = [find(dag_2x3, i.stage, i.microbatch, i.kind) for i in order]
            for u, v in zip(nodes, nodes[1:]):
                assert v in dag_2x3.succ[u]

    def test_source_and_sink_connected(self, dag_2x3):
        assert dag_2x3.succ[SOURCE]
        assert dag_2x3.pred[SINK]

    def test_topological_order_complete(self, dag_2x3):
        order = dag_2x3.topological_order()
        assert len(order) == dag_2x3.num_computations + 2
        position = {n: i for i, n in enumerate(order)}
        for u in dag_2x3.succ:
            for v in dag_2x3.succ[u]:
                assert position[u] < position[v]


class TestIterationTime:
    def test_uniform_durations_match_1f1b_formula(self):
        """With all durations 1, 1F1B runs in (M + N - 1) * 2 fwd+bwd slots.

        For uniform fwd=bwd=1: pipeline fill (N-1)*(fwd+bwd... classic
        1F1B makespan = (N - 1 + M) * (t_f + t_b) with balanced stages.
        """
        for n, m in [(2, 3), (4, 6), (3, 5)]:
            dag = build_pipeline_dag(schedule_1f1b(n, m))
            durations = {node: 1.0 for node in dag.nodes}
            assert dag.iteration_time(durations) == pytest.approx(
                (n - 1 + m) * 2.0
            )

    def test_bottleneck_stage_dominates(self):
        dag = build_pipeline_dag(schedule_1f1b(2, 4))
        durations = {}
        for node, ins in dag.nodes.items():
            durations[node] = 5.0 if ins.stage == 1 else 1.0
        t = dag.iteration_time(durations)
        # the slow stage's 8 computations are the bulk of the critical path
        assert t >= 8 * 5.0

    def test_earliest_start_respects_deps(self, dag_2x3):
        durations = {node: 1.0 for node in dag_2x3.nodes}
        starts = dag_2x3.earliest_start_times(durations)
        for u in dag_2x3.nodes:
            for v in dag_2x3.succ[u]:
                if v in dag_2x3.nodes:
                    assert starts[v] >= starts[u] + 1.0 - 1e-12


class TestConstOps:
    def test_dataload_gates_forward(self):
        dag = build_pipeline_dag(with_data_loading(schedule_1f1b(2, 2)))
        loads = [n for n, i in dag.nodes.items() if i.kind is InstrKind.CONST]
        assert len(loads) == 2
        for n in loads:
            ins = dag.nodes[n]
            fwd = find(dag, 0, ins.microbatch, InstrKind.FORWARD)
            assert fwd in dag.succ[n]

    def test_const_ops_lengthen_iteration(self):
        base = build_pipeline_dag(schedule_1f1b(2, 2))
        with_load = build_pipeline_dag(with_data_loading(schedule_1f1b(2, 2)))
        d1 = {n: 1.0 for n in base.nodes}
        d2 = {n: 1.0 for n in with_load.nodes}
        assert with_load.iteration_time(d2) > base.iteration_time(d1)


class TestHelpers:
    def test_cycle_detection(self):
        dag = ComputationDag()
        a = dag.add_node(Instruction(0, 0, InstrKind.FORWARD))
        b = dag.add_node(Instruction(0, 0, InstrKind.BACKWARD))
        dag.add_edge(a, b)
        dag.add_edge(b, a)
        with pytest.raises(GraphError):
            dag.topological_order()

    def test_edge_after_seal_invalidates_the_walk(self):
        dag = ComputationDag()
        a, b, c, d = (dag.add_node(Instruction(s, 0, k))
                      for s in (0, 1) for k in (InstrKind.FORWARD,
                                                InstrKind.BACKWARD))
        dag.add_edge(a, b)
        dag.add_edge(c, d)
        dag.seal()
        durations = {n: 1.0 for n in dag.nodes}
        assert dag.iteration_time(durations) == 2.0
        assert dag.topological_order().index(a) < \
            dag.topological_order().index(d)
        dag.add_edge(d, a)  # the two chains become one
        order = dag.topological_order()
        assert order.index(d) < order.index(a)
        assert dag.iteration_time(durations) == 4.0
        assert dag.earliest_start_times(durations)[b] == 3.0

    def test_node_after_seal_invalidates_the_walk(self, dag_2x3):
        durations = {n: 1.0 for n in dag_2x3.nodes}
        before = dag_2x3.iteration_time(durations)
        node = dag_2x3.add_node(Instruction(1, 0, InstrKind.CONST, "x"))
        dag_2x3.add_edge(SOURCE, node)
        dag_2x3.add_edge(node, SINK)
        assert node in dag_2x3.topological_order()
        assert dag_2x3.op_keys()[node] == (1, "const", "x")
        assert dag_2x3.iteration_time({**durations, node: 100.0}) == 100.0
        assert dag_2x3.iteration_time(durations) == before

    def test_cycle_added_after_seal_raises(self, dag_2x3):
        durations = {n: 1.0 for n in dag_2x3.nodes}
        dag_2x3.iteration_time(durations)  # the walk is cached
        f0 = find(dag_2x3, 0, 0, InstrKind.FORWARD)
        b0 = find(dag_2x3, 0, 0, InstrKind.BACKWARD)
        dag_2x3.add_edge(b0, f0)
        with pytest.raises(GraphError):
            dag_2x3.topological_order()
        with pytest.raises(GraphError):
            dag_2x3.iteration_time(durations)

    def test_self_loop_rejected(self):
        dag = ComputationDag()
        a = dag.add_node(Instruction(0, 0, InstrKind.FORWARD))
        with pytest.raises(GraphError):
            dag.add_edge(a, a)


def _interleaved(stages, microbatches, chunks):
    schedule = schedule_interleaved_1f1b(stages, microbatches, chunks)
    return schedule, dict(num_stages=stages * chunks,
                          device_of_stage=[v % stages
                                           for v in range(stages * chunks)])


#: (schedule, builder keyword arguments) for every schedule family.
PINNED_SCHEDULES = {
    "1f1b-pp1": (schedule_1f1b(1, 4), {}),
    "1f1b-pp1-mb1": (schedule_1f1b(1, 1), {}),
    "1f1b-2x3": (schedule_1f1b(2, 3), {}),
    "1f1b-m-below-n": (schedule_1f1b(4, 2), {}),
    "1f1b-4x8": (schedule_1f1b(4, 8), {}),
    "1f1b-8x32": (schedule_1f1b(8, 32), {}),
    "gpipe-3x4": (schedule_gpipe(3, 4), {}),
    "gpipe-m-below-n": (schedule_gpipe(4, 1), {}),
    "interleaved-2x4x2": _interleaved(2, 4, 2),
    "interleaved-4x8x2": _interleaved(4, 8, 2),
    "interleaved-3x6x3": _interleaved(3, 6, 3),
    "interleaved-without-devices": (schedule_interleaved_1f1b(2, 4), {}),
    "const-1f1b": (with_data_loading(schedule_1f1b(4, 6)), {}),
    "const-gpipe": (with_data_loading(schedule_gpipe(2, 3)), {}),
    "const-interleaved": (with_data_loading(_interleaved(2, 4, 2)[0]),
                          _interleaved(2, 4, 2)[1]),
    "labelled-computations": ([
        [Instruction(0, 0, InstrKind.FORWARD),
         Instruction(0, 0, InstrKind.FORWARD, "recompute"),
         Instruction(0, 0, InstrKind.BACKWARD)],
        [Instruction(1, 0, InstrKind.FORWARD),
         Instruction(1, 0, InstrKind.BACKWARD, "wgrad"),
         Instruction(1, 0, InstrKind.BACKWARD)],
    ], {}),
}


class TestMatchesTheTupleKeyedBuilder:
    """The one-pass builder reproduces the builder it replaced
    (``tests/reference/dag_v1.py``) structure for structure: edge-centric
    numbering and crawl ties follow the iteration order of the
    ``succ``/``pred`` sets, so that order is pinned too."""

    @staticmethod
    def structure(dag):
        return (list(dag.nodes.items()),
                [(v, list(us)) for v, us in dag.succ.items()],
                [(v, list(us)) for v, us in dag.pred.items()],
                dag._topological_walk(),
                dag.num_stages, dag.num_microbatches)

    @pytest.mark.parametrize("name", sorted(PINNED_SCHEDULES))
    def test_same_structure(self, name):
        schedule, kwargs = PINNED_SCHEDULES[name]
        built = build_pipeline_dag(schedule, **kwargs)
        assert built._walk is not None  # sealed: the walk is built
        assert self.structure(built) == self.structure(
            build_pipeline_dag_v1(schedule, **kwargs))

    def test_a_cyclic_schedule_raises_in_both(self):
        schedule = schedule_1f1b(2, 2)
        schedule[1][:2] = schedule[1][1::-1]  # B(1, 0) before F(1, 0)
        for build in (build_pipeline_dag, build_pipeline_dag_v1):
            with pytest.raises(GraphError, match="cycle"):
                build(schedule)

    def test_an_instruction_listed_twice_is_rejected(self):
        for extra in (Instruction(0, 1, InstrKind.FORWARD),
                      Instruction(0, 1, InstrKind.CONST, "dataload")):
            schedule = with_data_loading(schedule_1f1b(2, 2))
            schedule[0].append(extra)
            with pytest.raises(GraphError, match="twice"):
                build_pipeline_dag(schedule)
