"""Node-centric computation DAG of one training iteration (§3.2).

Nodes are forward/backward computations (plus constant-time ops); edges are
dependencies:

* execution order within each stage (a GPU runs one instruction at a time),
* activations flowing forward: ``F(s, m) -> F(s+1, m)``,
* gradients flowing backward: ``B(s, m) -> B(s-1, m)``,
* the turn-around at the last stage: ``F(N-1, m) -> B(N-1, m)``.

A virtual SOURCE precedes all roots and a virtual SINK follows all leaves,
so iteration time is the longest SOURCE->SINK path under a duration
assignment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import GraphError
from .instructions import InstrKind, Instruction
from .schedules import Schedule

SOURCE = -1
SINK = -2


@dataclass
class ComputationDag:
    """Directed acyclic graph of one iteration's computations.

    Node ids are dense integers ``0..n-1`` plus the virtual ``SOURCE`` /
    ``SINK`` sentinels.  ``nodes[i]`` is the :class:`Instruction` payload.
    """

    nodes: Dict[int, Instruction] = field(default_factory=dict)
    succ: Dict[int, Set[int]] = field(default_factory=dict)
    pred: Dict[int, Set[int]] = field(default_factory=dict)
    num_stages: int = 0
    num_microbatches: int = 0
    #: Every node with its predecessor tuple, in topological order: the
    #: one walk every longest-path pass reads.  Built on first use
    #: (:meth:`seal` builds it) and dropped by ``add_node``/``add_edge``.
    _walk: Optional[List[Tuple[int, Tuple[int, ...]]]] = field(
        default=None, init=False, repr=False, compare=False)
    #: Node -> ``Instruction.op_key``, built on first use, dropped by
    #: ``add_node``.
    _op_keys: Optional[Dict[int, Tuple]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for v in (SOURCE, SINK):
            self.succ.setdefault(v, set())
            self.pred.setdefault(v, set())

    # -- construction --------------------------------------------------------
    def add_node(self, instruction: Instruction) -> int:
        node_id = len(self.nodes)
        self.nodes[node_id] = instruction
        self.succ[node_id] = set()
        self.pred[node_id] = set()
        self._walk = self._op_keys = None
        return node_id

    def add_edge(self, u: int, v: int) -> None:
        if u not in self.succ or v not in self.succ:
            raise GraphError(f"edge ({u}, {v}) references unknown node")
        if u == v:
            raise GraphError("self-loops are not allowed")
        self.succ[u].add(v)
        self.pred[v].add(u)
        self._walk = None

    def seal(self) -> None:
        """Connect roots to SOURCE, leaves to SINK, and verify acyclicity."""
        for node_id in self.nodes:
            if not self.pred[node_id]:
                self.add_edge(SOURCE, node_id)
            if not self.succ[node_id]:
                self.add_edge(node_id, SINK)
        self.topological_order()  # raises on cycles

    # -- queries ---------------------------------------------------------------
    @property
    def num_computations(self) -> int:
        return len(self.nodes)

    def computation_ids(self) -> List[int]:
        return list(self.nodes)

    def op_keys(self) -> Dict[int, Tuple]:
        """Each computation's profile key (``Instruction.op_key``), in
        node order."""
        if self._op_keys is None:
            self._op_keys = {n: ins.op_key for n, ins in self.nodes.items()}
        return self._op_keys

    def topological_order(self) -> List[int]:
        """Topological order over all nodes incl. SOURCE/SINK; raises on cycles."""
        return [v for v, _ in self._topological_walk()]

    def _topological_walk(self) -> List[Tuple[int, Tuple[int, ...]]]:
        if self._walk is None:
            indeg = {v: len(self.pred[v]) for v in self.succ}
            queue = deque(v for v, d in indeg.items() if d == 0)
            order: List[int] = []
            while queue:
                u = queue.popleft()
                order.append(u)
                for v in self.succ[u]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        queue.append(v)
            if len(order) != len(self.succ):
                raise GraphError("computation graph contains a cycle")
            self._walk = [(v, tuple(self.pred[v])) for v in order]
        return self._walk

    def longest_path(
        self, durations: Dict[int, float]
    ) -> Tuple[Dict[int, float], float]:
        """Earliest start of each node and the SOURCE->SINK makespan
        under a duration assignment, from one pass over the walk."""
        start: Dict[int, float] = {}
        finish: Dict[int, float] = {}
        duration = durations.get
        for v, preds in self._topological_walk():
            at = max([finish[u] for u in preds]) if preds else 0.0
            start[v] = at
            finish[v] = at + duration(v, 0.0)
        return start, finish[SINK]

    def iteration_time(self, durations: Dict[int, float]) -> float:
        """Longest SOURCE->SINK path length under a duration assignment."""
        return self.longest_path(durations)[1]

    def earliest_start_times(self, durations: Dict[int, float]) -> Dict[int, float]:
        """Earliest start of each node under a duration assignment."""
        return self.longest_path(durations)[0]


def build_pipeline_dag(
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
