"""QAOA-MaxCut benchmark circuits on random regular graphs.

The paper evaluates QAOA for MaxCut on random regular graphs of degree 4 and
8 (benchmarks ``QAOA-r4-32``, ``QAOA-r8-32``, ``QAOA-r4-64``, ``QAOA-r8-64``).
A depth-``p`` QAOA circuit applies a Hadamard on every qubit, then ``p``
alternating layers of the problem unitary (one RZZ per graph edge) and the
mixer unitary (one RX per qubit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.benchmarks.graphs import is_regular, random_regular_graph
from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import BenchmarkError

__all__ = ["QAOAParameters", "qaoa_maxcut_circuit", "qaoa_regular_circuit"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class QAOAParameters:
    """Variational angles of a depth-``p`` QAOA circuit.

    ``gammas`` parameterise the problem layers (RZZ angles) and ``betas`` the
    mixer layers (RX angles); both must have length ``p``.
    """

    gammas: Tuple[float, ...] = (0.8,)
    betas: Tuple[float, ...] = (0.4,)

    def __post_init__(self) -> None:
        if len(self.gammas) != len(self.betas):
            raise BenchmarkError("gammas and betas must have the same length")
        if not self.gammas:
            raise BenchmarkError("QAOA needs at least one layer")

    @property
    def depth(self) -> int:
        """The QAOA depth ``p``."""
        return len(self.gammas)


def qaoa_maxcut_circuit(
    num_qubits: int,
    edges: Sequence[Edge],
    parameters: QAOAParameters = QAOAParameters(),
    name: Optional[str] = None,
) -> QuantumCircuit:
    """Build a QAOA-MaxCut circuit for an explicit edge list.

    Parameters
    ----------
    num_qubits:
        Number of graph vertices / qubits.
    edges:
        Graph edges; each edge contributes one RZZ gate per problem layer.
    parameters:
        Variational angles (structure does not depend on their values).
    name:
        Optional circuit name.
    """
    circuit = QuantumCircuit(num_qubits, name=name or f"QAOA-{num_qubits}")
    for a, b in edges:
        if not (0 <= a < num_qubits and 0 <= b < num_qubits) or a == b:
            raise BenchmarkError(f"invalid edge ({a}, {b}) for {num_qubits} qubits")

    for qubit in range(num_qubits):
        circuit.h(qubit)
    for gamma, beta in zip(parameters.gammas, parameters.betas):
        for a, b in edges:
            circuit.rzz(2.0 * gamma, a, b)
        for qubit in range(num_qubits):
            circuit.rx(2.0 * beta, qubit)
    return circuit


def qaoa_regular_circuit(
    num_qubits: int,
    degree: int,
    layers: int = 1,
    seed: int = 7,
    name: Optional[str] = None,
) -> QuantumCircuit:
    """Build QAOA-MaxCut for a random ``degree``-regular graph.

    This is the constructor behind the ``QAOA-r<d>-<n>`` benchmarks: the
    graph instance is drawn deterministically from ``seed`` so that repeated
    runs (and the Table I property report) see the same circuit.

    Parameters
    ----------
    num_qubits:
        Graph size (32 or 64 in the paper).
    degree:
        Vertex degree (4 or 8 in the paper).
    layers:
        QAOA depth ``p``; the paper's gate counts correspond to ``p = 1``.
    seed:
        Seed for graph generation.
    name:
        Optional circuit name; defaults to ``QAOA-r<degree>-<num_qubits>``.
    """
    edges = random_regular_graph(num_qubits, degree, seed=seed)
    if not is_regular(edges, num_qubits, degree):
        raise BenchmarkError("generated graph is not regular")
    # Linearly spaced default angles — typical warm-start heuristic.
    gammas = tuple(0.8 * (k + 1) / layers for k in range(layers))
    betas = tuple(0.4 * (layers - k) / layers for k in range(layers))
    parameters = QAOAParameters(gammas=gammas, betas=betas)
    return qaoa_maxcut_circuit(
        num_qubits,
        edges,
        parameters,
        name=name or f"QAOA-r{degree}-{num_qubits}",
    )


def maxcut_value(edges: Sequence[Edge], assignment: Sequence[int]) -> int:
    """Classical MaxCut objective of a ±1 / 0-1 assignment.

    Provided for the examples (quality of QAOA-inspired rounding) and tests.
    """
    cut = 0
    for a, b in edges:
        if assignment[a] != assignment[b]:
            cut += 1
    return cut
