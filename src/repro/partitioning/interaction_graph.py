"""Weighted qubit-interaction graph of a circuit.

Following the baseline of the paper (METIS partitioning of the circuit's
qubit-interaction graph, as in Davis et al.), each qubit is a vertex and
every two-qubit gate adds unit weight to the edge between its operands.  A
partition of this graph into QPU nodes that minimises the cut weight
minimises the number of remote two-qubit gates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import MissingDependencyError, PartitionError

__all__ = ["InteractionGraph"]

Edge = Tuple[int, int]


def _normalise(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass
class InteractionGraph:
    """Undirected weighted graph over qubit indices.

    Attributes
    ----------
    num_vertices:
        Number of vertices (qubits); vertices are ``0 .. num_vertices-1``
        even if some have no incident edges.
    weights:
        Mapping from normalised ``(a, b)`` pairs (``a < b``) to positive edge
        weights.
    vertex_weights:
        Optional per-vertex weights (defaults to 1 for every vertex); used by
        the multilevel coarsening to keep partitions balanced in terms of the
        original qubits.
    """

    num_vertices: int
    weights: Dict[Edge, float] = field(default_factory=dict)
    vertex_weights: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise PartitionError("interaction graph needs at least one vertex")
        for vertex in range(self.num_vertices):
            self.vertex_weights.setdefault(vertex, 1.0)
        for (a, b), weight in list(self.weights.items()):
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices):
                raise PartitionError(f"edge ({a}, {b}) out of range")
            if a == b:
                raise PartitionError("self-loops are not allowed")
            if weight <= 0:
                raise PartitionError("edge weights must be positive")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "InteractionGraph":
        """Build the interaction graph of a circuit (one unit per 2Q gate)."""
        weights: Dict[Edge, float] = defaultdict(float)
        for gate in circuit.gates:
            if gate.is_two_qubit:
                weights[_normalise(*gate.qubits)] += 1.0
        return cls(circuit.num_qubits, dict(weights))

    @classmethod
    def from_edges(cls, num_vertices: int,
                   edges: Iterable[Tuple[int, int]],
                   weight: float = 1.0) -> "InteractionGraph":
        """Build a graph from an unweighted edge list (each edge gets ``weight``)."""
        weights: Dict[Edge, float] = defaultdict(float)
        for a, b in edges:
            weights[_normalise(a, b)] += weight
        return cls(num_vertices, dict(weights))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of distinct weighted edges."""
        return len(self.weights)

    @property
    def total_vertex_weight(self) -> float:
        """Sum of all vertex weights."""
        return sum(self.vertex_weights.values())

    def weight(self, a: int, b: int) -> float:
        """Weight of edge (a, b), or 0 if absent."""
        return self.weights.get(_normalise(a, b), 0.0)

    def neighbors(self, vertex: int) -> Dict[int, float]:
        """Mapping of neighbours of ``vertex`` to edge weights."""
        result: Dict[int, float] = {}
        for (a, b), weight in self.weights.items():
            if a == vertex:
                result[b] = weight
            elif b == vertex:
                result[a] = weight
        return result

    def degree(self, vertex: int) -> float:
        """Weighted degree of a vertex."""
        return sum(self.neighbors(vertex).values())

    def adjacency(self) -> Dict[int, Dict[int, float]]:
        """Full adjacency structure (vertex -> neighbour -> weight)."""
        adj: Dict[int, Dict[int, float]] = {v: {} for v in range(self.num_vertices)}
        for (a, b), weight in self.weights.items():
            adj[a][b] = weight
            adj[b][a] = weight
        return adj

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over (a, b, weight) triples with a < b."""
        for (a, b), weight in sorted(self.weights.items()):
            yield a, b, weight

    def cut_weight(self, assignment: Mapping[int, int]) -> float:
        """Total weight of edges whose endpoints lie in different blocks."""
        cut = 0.0
        for (a, b), weight in self.weights.items():
            if assignment[a] != assignment[b]:
                cut += weight
        return cut

    def block_weights(self, assignment: Mapping[int, int]) -> Dict[int, float]:
        """Total vertex weight assigned to each block."""
        totals: Dict[int, float] = defaultdict(float)
        for vertex in range(self.num_vertices):
            totals[assignment[vertex]] += self.vertex_weights[vertex]
        return dict(totals)

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for validation and plotting).

        networkx is optional (the ``graph`` extra); without it this raises
        :class:`~repro.exceptions.MissingDependencyError`.
        """
        try:
            import networkx as nx
        except ImportError:
            raise MissingDependencyError(
                "InteractionGraph.to_networkx needs networkx; install it with "
                "pip install 'repro-dqc-codesign[graph]'"
            ) from None
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_vertices))
        for (a, b), weight in self.weights.items():
            graph.add_edge(a, b, weight=weight)
        return graph

    def laplacian(self):
        """Weighted graph Laplacian as a dense :class:`numpy.ndarray`."""
        import numpy as np

        matrix = np.zeros((self.num_vertices, self.num_vertices))
        for (a, b), weight in self.weights.items():
            matrix[a, b] -= weight
            matrix[b, a] -= weight
            matrix[a, a] += weight
            matrix[b, b] += weight
        return matrix

    def subgraph(self, vertices: Set[int]) -> Tuple["InteractionGraph", Dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with vertices renumbered ``0..k-1``) and the
        mapping from new indices back to original vertex ids.
        """
        ordered = sorted(vertices)
        new_index = {old: new for new, old in enumerate(ordered)}
        weights = {
            (new_index[a], new_index[b]): weight
            for (a, b), weight in self.weights.items()
            if a in vertices and b in vertices
        }
        vertex_weights = {new_index[v]: self.vertex_weights[v] for v in ordered}
        sub = InteractionGraph(len(ordered), weights, vertex_weights)
        back_map = {new: old for old, new in new_index.items()}
        return sub, back_map
