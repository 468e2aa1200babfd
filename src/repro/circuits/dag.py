"""Dependency DAG of a quantum circuit.

The discrete-event executor and the adaptive scheduler both operate on the
gate dependency graph rather than on the flat gate list: a gate becomes
*ready* when all of its qubit-predecessors have finished.  The DAG also
provides ASAP/ALAP levelling, which is used by the segment-variant compiler
and by tests that validate schedule legality.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.exceptions import DAGError

__all__ = ["DAGNode", "CircuitDAG"]


@dataclass
class DAGNode:
    """A gate occurrence inside a :class:`CircuitDAG`.

    Attributes
    ----------
    index:
        Position of the gate in the originating circuit's program order.
        Node indices are unique within a DAG.
    gate:
        The gate payload.
    predecessors / successors:
        Indices of directly dependent nodes (sharing at least one qubit with
        no other gate in between on that qubit).
    """

    index: int
    gate: Gate
    predecessors: Set[int] = field(default_factory=set)
    successors: Set[int] = field(default_factory=set)

    @property
    def is_remote(self) -> bool:
        """``True`` if the payload gate is labelled remote."""
        return self.gate.is_remote


class CircuitDAG:
    """Gate dependency DAG built from a :class:`QuantumCircuit`.

    Two gates are connected by a directed edge if they share a qubit and are
    adjacent on that qubit in program order.  The DAG therefore encodes
    exactly the data dependencies that constrain any legal schedule of the
    circuit.
    """

    def __init__(self, circuit: QuantumCircuit) -> None:
        self._circuit = circuit
        self._nodes: Dict[int, DAGNode] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        last_on_qubit: Dict[int, int] = {}
        for index, gate in enumerate(self._circuit.gates):
            node = DAGNode(index=index, gate=gate)
            self._nodes[index] = node
            for qubit in gate.qubits:
                if qubit in last_on_qubit:
                    pred = last_on_qubit[qubit]
                    node.predecessors.add(pred)
                    self._nodes[pred].successors.add(index)
                last_on_qubit[qubit] = index

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def circuit(self) -> QuantumCircuit:
        """The circuit this DAG was built from."""
        return self._circuit

    @property
    def num_nodes(self) -> int:
        """Number of gate nodes."""
        return len(self._nodes)

    def node(self, index: int) -> DAGNode:
        """Return the node with the given gate index."""
        try:
            return self._nodes[index]
        except KeyError as exc:
            raise DAGError(f"no DAG node with index {index}") from exc

    def nodes(self) -> Iterator[DAGNode]:
        """Iterate over nodes in program order."""
        for index in sorted(self._nodes):
            yield self._nodes[index]

    def gate(self, index: int) -> Gate:
        """Return the gate payload of a node."""
        return self.node(index).gate

    def predecessors(self, index: int) -> Set[int]:
        """Direct predecessors of a node."""
        return set(self.node(index).predecessors)

    def successors(self, index: int) -> Set[int]:
        """Direct successors of a node."""
        return set(self.node(index).successors)

    def roots(self) -> List[int]:
        """Nodes with no predecessors (initially ready gates)."""
        return [i for i, n in self._nodes.items() if not n.predecessors]

    def leaves(self) -> List[int]:
        """Nodes with no successors."""
        return [i for i, n in self._nodes.items() if not n.successors]

    def remote_nodes(self) -> List[int]:
        """Indices of gates labelled as remote, in program order."""
        return [i for i in sorted(self._nodes) if self._nodes[i].is_remote]

    # ------------------------------------------------------------------
    # orderings and layers
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Return node indices in a topological order (Kahn's algorithm).

        Ties are broken by program order so the result is deterministic.
        """
        indegree = {i: len(n.predecessors) for i, n in self._nodes.items()}
        ready = sorted(i for i, d in indegree.items() if d == 0)
        queue = deque(ready)
        order: List[int] = []
        while queue:
            current = queue.popleft()
            order.append(current)
            for successor in sorted(self._nodes[current].successors):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    queue.append(successor)
        if len(order) != len(self._nodes):
            raise DAGError("dependency graph contains a cycle")
        return order

    def layers(self) -> List[List[int]]:
        """Group nodes into dependency layers (unit-latency ASAP levels).

        Layer ``k`` contains the gates whose longest dependency chain from a
        root has length ``k``.  The number of layers equals the unit depth of
        the circuit.
        """
        level: Dict[int, int] = {}
        for index in self.topological_order():
            preds = self._nodes[index].predecessors
            level[index] = 0 if not preds else 1 + max(level[p] for p in preds)
        grouped: Dict[int, List[int]] = defaultdict(list)
        for index, lev in level.items():
            grouped[lev].append(index)
        return [sorted(grouped[k]) for k in sorted(grouped)]

    def asap_levels(
        self, durations: Optional[Dict[str, float]] = None
    ) -> Dict[int, float]:
        """Earliest start time of each gate under unlimited parallelism.

        ``durations`` maps gate names to latencies; missing names default to
        1.0.  Without ``durations`` all gates take one time unit.
        """
        start: Dict[int, float] = {}
        for index in self.topological_order():
            node = self._nodes[index]
            if not node.predecessors:
                start[index] = 0.0
            else:
                start[index] = max(
                    start[p] + self._duration(self._nodes[p].gate, durations)
                    for p in node.predecessors
                )
        return start

    def alap_levels(
        self, durations: Optional[Dict[str, float]] = None
    ) -> Dict[int, float]:
        """Latest start time of each gate that preserves the critical path."""
        asap = self.asap_levels(durations)
        makespan = max(
            (asap[i] + self._duration(self._nodes[i].gate, durations)
             for i in self._nodes),
            default=0.0,
        )
        finish: Dict[int, float] = {}
        for index in reversed(self.topological_order()):
            node = self._nodes[index]
            if not node.successors:
                finish[index] = makespan
            else:
                finish[index] = min(
                    finish[s] - self._duration(self._nodes[s].gate, durations)
                    for s in node.successors
                )
        return {
            i: finish[i] - self._duration(self._nodes[i].gate, durations)
            for i in self._nodes
        }

    def critical_path_length(
        self, durations: Optional[Dict[str, float]] = None
    ) -> float:
        """Length of the critical path (weighted depth)."""
        asap = self.asap_levels(durations)
        return max(
            (asap[i] + self._duration(self._nodes[i].gate, durations)
             for i in self._nodes),
            default=0.0,
        )

    def slack(self, durations: Optional[Dict[str, float]] = None) -> Dict[int, float]:
        """Scheduling slack (ALAP − ASAP start) of each gate."""
        asap = self.asap_levels(durations)
        alap = self.alap_levels(durations)
        return {i: alap[i] - asap[i] for i in self._nodes}

    @staticmethod
    def _duration(gate: Gate, durations: Optional[Dict[str, float]]) -> float:
        if durations is None:
            return 1.0
        return float(durations.get(gate.name, 1.0))

    # ------------------------------------------------------------------
    # reachability / ancestry
    # ------------------------------------------------------------------
    def ancestors(self, index: int) -> Set[int]:
        """All transitive predecessors of a node."""
        seen: Set[int] = set()
        stack = list(self.node(index).predecessors)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].predecessors)
        return seen

    def descendants(self, index: int) -> Set[int]:
        """All transitive successors of a node."""
        seen: Set[int] = set()
        stack = list(self.node(index).successors)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].successors)
        return seen

    def is_legal_order(self, order: Sequence[int]) -> bool:
        """Check that ``order`` is a topological order of this DAG."""
        if sorted(order) != sorted(self._nodes):
            return False
        position = {node: pos for pos, node in enumerate(order)}
        for index, node in self._nodes.items():
            for pred in node.predecessors:
                if position[pred] > position[index]:
                    return False
        return True

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_circuit(self, order: Optional[Sequence[int]] = None) -> QuantumCircuit:
        """Rebuild a circuit from this DAG in the given (topological) order."""
        if order is None:
            order = self.topological_order()
        elif not self.is_legal_order(order):
            raise DAGError("provided order violates DAG dependencies")
        new = QuantumCircuit(self._circuit.num_qubits, name=self._circuit.name)
        for index in order:
            new.append(self._nodes[index].gate)
        return new

    def edges(self) -> List[Tuple[int, int]]:
        """Return all dependency edges as (predecessor, successor) pairs."""
        result = []
        for index, node in self._nodes.items():
            for successor in node.successors:
                result.append((index, successor))
        return sorted(result)
