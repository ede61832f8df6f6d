"""The DAG builder as it was before the one-pass rewrite, verbatim.

:func:`build_pipeline_dag_v1` builds through the public hand-built
API of :class:`~repro.pipeline.dag.ComputationDag` (``add_node``,
``add_edge`` with its per-edge checks, ``seal``) and keys node ids by
``(stage, microbatch, kind, label)`` tuples.  The one-pass builder in
:mod:`repro.pipeline.dag` must produce the same structure: the same
nodes, the same ``succ``/``pred`` sets in the same iteration order
(edge-centric numbering and crawl ties follow it), the same walk and
the same ``num_microbatches``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError
from repro.pipeline.dag import ComputationDag
from repro.pipeline.instructions import InstrKind
from repro.pipeline.schedules import Schedule


def build_pipeline_dag_v1(
    schedule: Schedule,
    num_stages: Optional[int] = None,
    device_of_stage: Optional[Sequence[int]] = None,
) -> ComputationDag:
    """Build the computation DAG from a per-stage instruction schedule.

    Args:
        schedule: Per-stage instruction lists (see :mod:`.schedules`).
        num_stages: Override for the stage count (defaults to
            ``len(schedule)``); used by interleaved schedules where several
            virtual stages share a device.
        device_of_stage: Optional map from stage id to device id.  Stages on
            the same device get sequential-execution edges merged across
            their instruction lists (one GPU, one stream).
    """
    n = len(schedule) if num_stages is None else num_stages
    if len(schedule) != n:
        raise GraphError("schedule length disagrees with num_stages")
    microbatches: Set[int] = set()
    for order in schedule:
        for ins in order:
            if ins.kind is not InstrKind.CONST:
                microbatches.add(ins.microbatch)
    m = len(microbatches)

    dag = ComputationDag(num_stages=n, num_microbatches=m)
    ids: Dict[Tuple[int, int, InstrKind, str], int] = {}
    per_stage: Dict[int, List[int]] = {}
    per_device: Dict[int, List[int]] = {}

    for s, order in enumerate(schedule):
        device = s if device_of_stage is None else device_of_stage[s]
        stage_seq = per_stage.setdefault(s, [])
        for ins in order:
            node = dag.add_node(ins)
            ids[(ins.stage, ins.microbatch, ins.kind, ins.label)] = node
            stage_seq.append(node)
            per_device.setdefault(device, []).append(node)

    # Each stage executes its own instructions in schedule order.
    for seq in per_stage.values():
        for u, v in zip(seq, seq[1:]):
            dag.add_edge(u, v)

    # Activation / gradient flow between adjacent stages.
    for (stage, mb, kind, _label), node in ids.items():
        if kind is InstrKind.FORWARD:
            nxt = ids.get((stage + 1, mb, InstrKind.FORWARD, ""))
            if nxt is not None:
                dag.add_edge(node, nxt)
            if stage == n - 1:
                turn = ids.get((stage, mb, InstrKind.BACKWARD, ""))
                if turn is not None:
                    dag.add_edge(node, turn)
        elif kind is InstrKind.BACKWARD:
            prv = ids.get((stage - 1, mb, InstrKind.BACKWARD, ""))
            if prv is not None:
                dag.add_edge(node, prv)
            fwd = ids.get((stage, mb, InstrKind.FORWARD, ""))
            if fwd is not None:
                dag.add_edge(fwd, node)
        else:  # CONST op gates the matching forward on the same stage
            fwd = ids.get((stage, mb, InstrKind.FORWARD, ""))
            if fwd is not None:
                dag.add_edge(node, fwd)

    # Devices hosting several (virtual) stages -- interleaved schedules --
    # run one instruction at a time.  Sequentialize each device's nodes in
    # dependency-consistent order: sort by earliest start under unit
    # durations (two nodes with a path between them always differ in
    # earliest start, so these edges can never close a cycle).
    multi_stage_devices = [
        nodes for nodes in per_device.values()
        if len({dag.nodes[x].stage for x in nodes}) > 1
    ]
    if multi_stage_devices:
        unit = {node: 1.0 for node in dag.nodes}
        est = dag.earliest_start_times(unit)
        position = {node: i for i, node in enumerate(dag.nodes)}
        for nodes in multi_stage_devices:
            ordered = sorted(
                nodes, key=lambda x: (est[x], dag.nodes[x].stage, position[x])
            )
            for u, v in zip(ordered, ordered[1:]):
                if v not in dag.succ[u]:
                    dag.add_edge(u, v)

    dag.seal()
    return dag
