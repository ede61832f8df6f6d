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
        """Connect roots to SOURCE, leaves to SINK, and build the walk
        (raises on cycles)."""
        for node_id in self.nodes:
            if not self.pred[node_id]:
                self.add_edge(SOURCE, node_id)
            if not self.succ[node_id]:
                self.add_edge(node_id, SINK)
        self._topological_walk()

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
            succ, pred = self.succ, self.pred
            indeg = {v: len(pred[v]) for v in succ}
            order = [v for v, d in indeg.items() if not d]
            # Kahn's algorithm, FIFO: ``order`` doubles as the queue.
            for u in order:
                for v in succ[u]:
                    d = indeg[v] - 1
                    indeg[v] = d
                    if not d:
                        order.append(v)
            if len(order) != len(succ):
                raise GraphError("computation graph contains a cycle")
            self._walk = [(v, tuple(pred[v])) for v in order]
        return self._walk

    def longest_path(
        self, durations: Dict[int, float]
    ) -> Tuple[Dict[int, float], float]:
        """Earliest start of each node and the SOURCE->SINK makespan
        under a duration assignment, from one pass over the walk."""
        start: Dict[int, float] = {}
        finish: Dict[int, float] = {}
        duration, finished = durations.get, finish.__getitem__
        for v, preds in self._topological_walk():
            at = max(map(finished, preds)) if preds else 0.0
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

    Edges are written straight into ``succ``/``pred`` (every generated
    edge joins two distinct known nodes, so none needs ``add_edge``'s
    checks), in a fixed order: each stage's execution order first, then
    each node's activation, gradient and const-op edges in node order,
    then the devices' merge edges and the SOURCE/SINK edges.  A set's
    iteration order depends on the order its elements were added, and
    edge-centric numbering and crawl ties follow set order, so that
    order is part of the result.  An instruction listed twice is a
    :class:`GraphError`.
    """
    n = len(schedule) if num_stages is None else num_stages
    if len(schedule) != n:
        raise GraphError("schedule length disagrees with num_stages")
    FORWARD, BACKWARD, CONST = (InstrKind.FORWARD, InstrKind.BACKWARD,
                                InstrKind.CONST)
    dag = ComputationDag(num_stages=n)
    nodes, succ, pred = dag.nodes, dag.succ, dag.pred
    # Stage -> microbatch -> node of its unlabelled forward (backward):
    # the only nodes an activation, gradient or const-op edge points at.
    forwards: Dict[int, Dict[int, int]] = {}
    backwards: Dict[int, Dict[int, int]] = {}
    others: Set[Instruction] = set()  # const ops and labelled computations
    per_device: Dict[int, List[int]] = {}
    node = 0
    for s, order in enumerate(schedule):
        first = node
        for ins in order:
            nodes[node] = ins
            kind = ins.kind
            if ins.label or (kind is not FORWARD and kind is not BACKWARD):
                duplicate = ins in others
                others.add(ins)
            else:
                tables = forwards if kind is FORWARD else backwards
                table = tables.get(ins.stage)
                if table is None:
                    table = tables[ins.stage] = {}
                duplicate = table.setdefault(ins.microbatch, node) != node
            if duplicate:
                raise GraphError(f"{ins} appears twice in the schedule")
            node += 1
        # Each stage executes its own instructions in schedule order.
        if node > first:
            pred[first] = set()
            for v in range(first + 1, node):
                succ[v - 1] = {v}
                pred[v] = {v - 1}
            succ[node - 1] = set()
        device = s if device_of_stage is None else device_of_stage[s]
        per_device.setdefault(device, []).extend(range(first, node))
    microbatches = set().union(*forwards.values(), *backwards.values())
    microbatches.update(ins.microbatch for ins in others
                        if ins.kind is not CONST)
    dag.num_microbatches = len(microbatches)

    # Activation / gradient flow between adjacent stages, in node order;
    # the tables of a node's stage and its neighbours' are looked up
    # once per run of nodes on one stage.
    last, none, stage = n - 1, {}, None
    for u, ins in nodes.items():
        if ins.stage != stage:
            stage = ins.stage
            here_f = forwards.get(stage, none)
            next_f = forwards.get(stage + 1, none)
            prev_b = backwards.get(stage - 1, none)
            turn_b = backwards.get(stage, none) if stage == last else none
        kind, mb = ins.kind, ins.microbatch
        if kind is FORWARD:
            v = next_f.get(mb)
            if v is not None:
                succ[u].add(v)
                pred[v].add(u)
            v = turn_b.get(mb)
            if v is not None:  # the turn-around at the last stage
                succ[u].add(v)
                pred[v].add(u)
        elif kind is BACKWARD:
            v = prev_b.get(mb)
            if v is not None:
                succ[u].add(v)
                pred[v].add(u)
            v = here_f.get(mb)
            if v is not None:
                succ[v].add(u)
                pred[u].add(v)
        else:  # CONST op gates the matching forward on the same stage
            v = here_f.get(mb)
            if v is not None:
                succ[u].add(v)
                pred[v].add(u)

    # Devices hosting several (virtual) stages -- interleaved schedules --
    # run one instruction at a time.  Sequentialize each device's nodes in
    # dependency-consistent order: sort by earliest start under unit
    # durations (two nodes with a path between them always differ in
    # earliest start, so these edges can never close a cycle).
    multi_stage_devices = [
        ids for ids in per_device.values()
        if len({nodes[x].stage for x in ids}) > 1
    ]
    if multi_stage_devices:
        est = dag.earliest_start_times(dict.fromkeys(nodes, 1.0))
        for ids in multi_stage_devices:
            ordered = sorted(ids, key=lambda x: (est[x], nodes[x].stage, x))
            for u, v in zip(ordered, ordered[1:]):
                if v not in succ[u]:
                    succ[u].add(v)
                    pred[v].add(u)
        dag._walk = None  # the unit-duration pass walked the graph before

    dag.seal()
    return dag
