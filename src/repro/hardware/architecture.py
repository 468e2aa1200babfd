"""Multi-node DQC architecture description.

:class:`DQCArchitecture` bundles the QPU nodes, the interconnect between
them, and the timing / fidelity / physical parameters into a single object
consumed by the entanglement subsystem and the discrete-event executor.  The
paper's main configuration is the 2-node, 16-data-qubits-per-node machine
with 10 communication and 10 buffer qubits per node; helpers build that and
the larger 64-qubit variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hardware.node import QPUNode
from repro.hardware.parameters import GateFidelities, GateTimes, PhysicalConstants
from repro.exceptions import ArchitectureError, TopologyError

__all__ = ["DQCArchitecture", "two_node_architecture"]

NodePair = Tuple[int, int]


@dataclass
class DQCArchitecture:
    """A distributed quantum computer: nodes plus interconnect parameters.

    Parameters
    ----------
    nodes:
        The QPU nodes.  Data qubits within a node are assumed fully
        connected (as in the paper's evaluation).
    gate_times:
        Operation latencies (Table II).
    fidelities:
        Operation fidelities (Table II).
    physics:
        Physical constants (CNOT time, decoherence time, psucc).
    links:
        Optional explicit list of node pairs that share an optical
        interconnect; ``None`` means all-to-all connectivity between nodes.
        Links are normalised at construction: reversed and duplicate pairs
        collapse into one sorted list of canonical ``(a, b)`` pairs with
        ``a < b``, so :meth:`node_pairs` and the entanglement service see a
        single representation.  A link list that leaves some node unreachable
        raises :class:`~repro.exceptions.TopologyError`.
    """

    nodes: List[QPUNode]
    gate_times: GateTimes = field(default_factory=GateTimes)
    fidelities: GateFidelities = field(default_factory=GateFidelities)
    physics: PhysicalConstants = field(default_factory=PhysicalConstants)
    links: Optional[List[NodePair]] = None

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ArchitectureError("architecture needs at least one node")
        indices = [node.index for node in self.nodes]
        if indices != list(range(len(self.nodes))):
            raise ArchitectureError("node indices must be 0..N-1 in order")
        if self.links is not None:
            canonical = set()
            for a, b in self.links:
                if a == b or not (0 <= a < len(self.nodes)) or not (
                    0 <= b < len(self.nodes)
                ):
                    raise ArchitectureError(f"invalid interconnect link ({a}, {b})")
                canonical.add((min(a, b), max(a, b)))
            self.links = sorted(canonical)
            self._check_connected()

    def _check_connected(self) -> None:
        """Reject link lists that leave part of the machine unreachable."""
        if len(self.nodes) < 2:
            return
        neighbors: Dict[int, List[int]] = {i: [] for i in range(len(self.nodes))}
        for a, b in self.links or ():
            neighbors[a].append(b)
            neighbors[b].append(a)
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for peer in neighbors[node]:
                if peer not in reached:
                    reached.add(peer)
                    frontier.append(peer)
        unreachable = sorted(set(range(len(self.nodes))) - reached)
        if unreachable:
            raise TopologyError(
                f"interconnect is disconnected: node(s) {unreachable} are "
                f"unreachable from node 0 over links {self.links}"
            )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of QPU nodes."""
        return len(self.nodes)

    @property
    def total_data_qubits(self) -> int:
        """Total data qubits across all nodes."""
        return sum(node.num_data_qubits for node in self.nodes)

    @property
    def decoherence_rate(self) -> float:
        """Decoherence rate ``kappa`` per depth unit."""
        return self.physics.decoherence_rate_per_unit

    def node_pairs(self) -> List[NodePair]:
        """All connected node pairs (a < b)."""
        if self.links is not None:
            return list(self.links)  # canonicalised in __post_init__
        return [
            (a, b)
            for a in range(self.num_nodes)
            for b in range(a + 1, self.num_nodes)
        ]

    def are_connected(self, node_a: int, node_b: int) -> bool:
        """Whether two nodes share an interconnect link."""
        if node_a == node_b:
            return False
        return (min(node_a, node_b), max(node_a, node_b)) in self.node_pairs()

    def comm_pairs_between(self, node_a: int, node_b: int) -> int:
        """Number of communication-qubit pairs usable between two nodes.

        With all-to-all node connectivity the paper dedicates each node's
        communication qubits to its single peer (2-node setting); for more
        nodes the qubits are divided evenly among the peers of each node.
        """
        return self._share_between(node_a, node_b, "num_comm_qubits")

    def buffer_capacity_between(self, node_a: int, node_b: int) -> int:
        """Number of EPR pairs storable between two nodes (buffer-limited)."""
        return self._share_between(node_a, node_b, "num_buffer_qubits")

    def _share_between(self, node_a: int, node_b: int, count: str) -> int:
        """The smaller of the two nodes' ``count`` split evenly among peers."""
        if not self.are_connected(node_a, node_b):
            return 0
        pairs = self.node_pairs()
        return min(
            getattr(self.nodes[index], count)
            // max(1, sum(1 for pair in pairs if index in pair))
            for index in (node_a, node_b)
        )

    def validate_capacity(self, qubits_per_node: List[int]) -> None:
        """Check that each node can host the requested number of data qubits."""
        if len(qubits_per_node) != self.num_nodes:
            raise ArchitectureError("qubits_per_node length must equal num_nodes")
        for node, demand in zip(self.nodes, qubits_per_node):
            if demand > node.num_data_qubits:
                raise ArchitectureError(
                    f"node {node.index} hosts only {node.num_data_qubits} data "
                    f"qubits but the program needs {demand}"
                )


def two_node_architecture(
    data_qubits_per_node: int = 16,
    comm_qubits_per_node: int = 10,
    buffer_qubits_per_node: int = 10,
    gate_times: Optional[GateTimes] = None,
    fidelities: Optional[GateFidelities] = None,
    physics: Optional[PhysicalConstants] = None,
    links: Optional[List[NodePair]] = None,
) -> DQCArchitecture:
    """Build the paper's 2-node evaluation architecture.

    Defaults correspond to the 32-data-qubit configuration of Sec. V-A
    (16 fully connected data qubits, 10 communication and 10 buffer qubits
    per node); the 64-qubit experiments of Sec. V-C use 32/20/20.
    ``links=None`` keeps the all-to-all encoding (for 2 nodes, equivalent to
    the single explicit link ``(0, 1)``).
    """
    nodes = [
        QPUNode(0, data_qubits_per_node, comm_qubits_per_node, buffer_qubits_per_node),
        QPUNode(1, data_qubits_per_node, comm_qubits_per_node, buffer_qubits_per_node),
    ]
    return DQCArchitecture(
        nodes=nodes,
        gate_times=gate_times or GateTimes(),
        fidelities=fidelities or GateFidelities(),
        physics=physics or PhysicalConstants(),
        links=links,
    )
