"""Circuit-to-node assignment and remote-gate labelling.

Bridges the partitioning substrate and the runtime: given a circuit and a
partition of its qubits into QPU nodes, :func:`distribute_circuit` produces a
:class:`DistributedProgram` whose gates are labelled ``"remote"`` when their
operands live on different nodes.  This is the object that the scheduling
and execution layers consume, and its local/remote gate counts reproduce the
corresponding columns of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.partitioning.interaction_graph import InteractionGraph
from repro.partitioning.partition import Partition
from repro.partitioning.registry import Partitioner, get_partitioner
from repro.exceptions import PartitionError

__all__ = [
    "DistributedProgram",
    "distribute_circuit",
    "label_remote_gates",
    "rebalance_partition",
]


@dataclass
class DistributedProgram:
    """A circuit bound to a qubit partition.

    Attributes
    ----------
    circuit:
        Circuit whose two-qubit gates crossing the partition are labelled
        ``"remote"``.
    partition:
        The qubit-to-node assignment used for labelling.
    name:
        Program name (inherited from the source circuit).
    """

    circuit: QuantumCircuit
    partition: Partition
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.circuit.name

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of QPU nodes the program is distributed over."""
        return self.partition.num_blocks

    @property
    def num_qubits(self) -> int:
        """Number of data qubits in the program."""
        return self.circuit.num_qubits

    def node_of(self, qubit: int) -> int:
        """Node index hosting a given data qubit."""
        return self.partition.block_of(qubit)

    def qubits_on_node(self, node: int) -> List[int]:
        """Data qubits assigned to a node."""
        return self.partition.block_members(node)

    # ------------------------------------------------------------------
    # gate statistics (Table I columns)
    # ------------------------------------------------------------------
    def remote_gate_count(self) -> int:
        """Number of two-qubit gates whose operands live on different nodes."""
        return sum(1 for gate in self.circuit.gates if gate.is_remote)

    def local_two_qubit_count(self) -> int:
        """Number of two-qubit gates entirely within one node."""
        return sum(
            1 for gate in self.circuit.gates
            if gate.is_two_qubit and not gate.is_remote
        )

    def single_qubit_count(self) -> int:
        """Number of single-qubit gates."""
        return self.circuit.num_single_qubit_gates()

    def remote_fraction(self) -> float:
        """Fraction of two-qubit gates that are remote."""
        total = self.circuit.num_two_qubit_gates()
        return self.remote_gate_count() / total if total else 0.0

    def remote_pairs(self) -> List[Tuple[int, int]]:
        """Node pairs (a < b) of every remote gate, in program order."""
        pairs = []
        for gate in self.circuit.gates:
            if gate.is_remote:
                node_a = self.node_of(gate.qubits[0])
                node_b = self.node_of(gate.qubits[1])
                pairs.append((min(node_a, node_b), max(node_a, node_b)))
        return pairs

    def properties(self) -> Dict[str, int]:
        """Structural summary used by the Table I report."""
        return {
            "qubits": self.num_qubits,
            "local_2q": self.local_two_qubit_count(),
            "remote_2q": self.remote_gate_count(),
            "single_q": self.single_qubit_count(),
            "depth": int(self.circuit.depth()),
        }


def label_remote_gates(circuit: QuantumCircuit, partition: Partition) -> QuantumCircuit:
    """Return a copy of ``circuit`` with cross-partition 2Q gates labelled remote."""
    labels: Dict[int, Optional[str]] = {}
    for index, gate in enumerate(circuit.gates):
        if gate.is_two_qubit:
            node_a = partition.block_of(gate.qubits[0])
            node_b = partition.block_of(gate.qubits[1])
            labels[index] = "remote" if node_a != node_b else None
        elif gate.label == "remote":
            labels[index] = None  # stale label from a previous partition
    return circuit.relabel_gates(labels)


def rebalance_partition(graph: InteractionGraph, partition: Partition,
                        target_sizes: List[int]) -> Partition:
    """Move vertices between blocks until each block has its target size.

    The multilevel partitioner tolerates a small imbalance (like METIS), but
    the DQC architecture hosts an exact number of data qubits per node, so
    oversized blocks must shed vertices.  Vertices are moved greedily from
    oversized to undersized blocks choosing, at every step, the move with the
    smallest cut-weight increase.
    """
    if len(target_sizes) != partition.num_blocks:
        raise PartitionError("target_sizes length must equal num_blocks")
    if sum(target_sizes) != partition.num_vertices:
        raise PartitionError("target sizes must sum to the number of vertices")

    assignment = dict(partition.assignment)
    adjacency = graph.adjacency()

    def block_sizes() -> List[int]:
        sizes = [0] * partition.num_blocks
        for block in assignment.values():
            sizes[block] += 1
        return sizes

    def move_cost(vertex: int, destination: int) -> float:
        source = assignment[vertex]
        delta = 0.0
        for neighbor, weight in adjacency[vertex].items():
            if assignment[neighbor] == source:
                delta += weight
            elif assignment[neighbor] == destination:
                delta -= weight
        return delta

    sizes = block_sizes()
    while any(size > target for size, target in zip(sizes, target_sizes)):
        oversized = [b for b in range(partition.num_blocks)
                     if sizes[b] > target_sizes[b]]
        undersized = [b for b in range(partition.num_blocks)
                      if sizes[b] < target_sizes[b]]
        best: Optional[Tuple[float, int, int]] = None
        for source in oversized:
            for vertex, block in assignment.items():
                if block != source:
                    continue
                for destination in undersized:
                    cost = move_cost(vertex, destination)
                    candidate = (cost, vertex, destination)
                    if best is None or candidate < best:
                        best = candidate
        if best is None:
            raise PartitionError("rebalancing failed to find a legal move")
        _, vertex, destination = best
        assignment[vertex] = destination
        sizes = block_sizes()

    return Partition(assignment, partition.num_blocks,
                     method=f"{partition.method}+rebalance")


def distribute_circuit(
    circuit: QuantumCircuit,
    num_nodes: int = 2,
    partition: Optional[Partition] = None,
    method: Union[str, Partitioner] = "multilevel",
    seed: int = 0,
    exact_balance: bool = True,
) -> DistributedProgram:
    """Partition a circuit's qubits over QPU nodes and label remote gates.

    Parameters
    ----------
    circuit:
        Input circuit (not modified).
    num_nodes:
        Number of QPU nodes; ignored when ``partition`` is given.
    partition:
        Pre-computed partition to use (the ``"precomputed"`` passthrough);
        when omitted, the interaction graph is partitioned with ``method``.
    method:
        Partitioning strategy: a name registered in
        :mod:`repro.partitioning.registry` (``"multilevel"`` reproduces the
        METIS baseline of the paper) or a :class:`Partitioner` instance.
    seed:
        Seed for the partitioner.
    exact_balance:
        If ``True`` (default), the partition is rebalanced so every node
        hosts exactly ``num_qubits / num_nodes`` data qubits (rounded as
        evenly as possible), matching the paper's symmetric node capacity.
    """
    if partition is None:
        partitioner = get_partitioner(method)
        graph = InteractionGraph.from_circuit(circuit)
        partition = partitioner.partition(graph, num_blocks=num_nodes,
                                          seed=seed)
        if exact_balance:
            base = circuit.num_qubits // num_nodes
            remainder = circuit.num_qubits % num_nodes
            targets = [base + (1 if index < remainder else 0)
                       for index in range(num_nodes)]
            if partition.block_sizes() != targets:
                partition = rebalance_partition(graph, partition, targets)
    if partition.num_vertices != circuit.num_qubits:
        raise PartitionError(
            "partition size does not match circuit register "
            f"({partition.num_vertices} vs {circuit.num_qubits})"
        )
    labelled = label_remote_gates(circuit, partition)
    return DistributedProgram(circuit=labelled, partition=partition)
