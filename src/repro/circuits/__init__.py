"""Quantum-circuit IR substrate.

Exports the core circuit types used throughout the package: gates, circuits,
the dependency DAG, commutation analysis, and the segment rewrites that power
adaptive scheduling.
"""

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.commutation import gates_commute
from repro.circuits.dag import CircuitDAG, DAGNode
from repro.circuits.drawer import draw_circuit
from repro.circuits.gate import GATE_LIBRARY, Gate, GateSpec, gate_spec
from repro.circuits.transforms import (
    alap_variant,
    asap_variant,
    move_gates_earlier,
    move_gates_later,
    reorder_is_equivalent,
)

__all__ = [
    "QuantumCircuit",
    "Gate",
    "GateSpec",
    "GATE_LIBRARY",
    "gate_spec",
    "CircuitDAG",
    "DAGNode",
    "gates_commute",
    "draw_circuit",
    "asap_variant",
    "alap_variant",
    "move_gates_earlier",
    "move_gates_later",
    "reorder_is_equivalent",
]
