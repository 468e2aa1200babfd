"""Circuit-level transformations used by the adaptive scheduler.

The paper pre-compiles each circuit segment into an *ASAP* variant (remote
gates pulled as early as their dependencies and commutation relations allow)
and an *ALAP* variant (remote gates pushed as late as possible).  Both
variants are equivalent circuits: they only reorder gates that commute.

These rewrites are expressed here as pure functions on
:class:`~repro.circuits.circuit.QuantumCircuit` so they can be tested in
isolation from the runtime.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.commutation import gates_commute
from repro.circuits.gate import Gate

__all__ = [
    "move_gates_earlier",
    "move_gates_later",
    "asap_variant",
    "alap_variant",
    "reorder_is_equivalent",
    "canonical_gate_multiset",
]


def _default_is_remote(gate: Gate) -> bool:
    return gate.is_remote


def move_gates_earlier(
    circuit: QuantumCircuit,
    selector: Optional[Callable[[Gate], bool]] = None,
    max_passes: int = 0,
) -> QuantumCircuit:
    """Bubble selected gates toward the front of the circuit.

    A selected gate is swapped with its immediate predecessor in program
    order whenever the two gates commute.  The process repeats until a fixed
    point (or ``max_passes`` passes, if positive) is reached.  The result is
    an equivalent circuit in which the selected gates appear as early as
    commutation allows.

    Parameters
    ----------
    circuit:
        Input circuit (not modified).
    selector:
        Predicate choosing which gates to move; defaults to remote-labelled
        gates.
    max_passes:
        Optional safety bound on the number of full passes (0 = unbounded,
        the loop always terminates because each swap strictly decreases the
        sum of selected-gate positions).
    """
    selector = selector or _default_is_remote
    gates: List[Gate] = list(circuit.gates)
    passes = 0
    changed = True
    while changed:
        changed = False
        for position in range(1, len(gates)):
            gate = gates[position]
            previous = gates[position - 1]
            if not selector(gate) or selector(previous):
                continue
            if gates_commute(gate, previous):
                gates[position - 1], gates[position] = gate, previous
                changed = True
        passes += 1
        if max_passes and passes >= max_passes:
            break
    result = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_asap")
    result.extend(gates)
    return result


def move_gates_later(
    circuit: QuantumCircuit,
    selector: Optional[Callable[[Gate], bool]] = None,
    max_passes: int = 0,
) -> QuantumCircuit:
    """Bubble selected gates toward the end of the circuit.

    Mirror image of :func:`move_gates_earlier`.
    """
    selector = selector or _default_is_remote
    gates: List[Gate] = list(circuit.gates)
    passes = 0
    changed = True
    while changed:
        changed = False
        for position in range(len(gates) - 2, -1, -1):
            gate = gates[position]
            following = gates[position + 1]
            if not selector(gate) or selector(following):
                continue
            if gates_commute(gate, following):
                gates[position], gates[position + 1] = following, gate
                changed = True
        passes += 1
        if max_passes and passes >= max_passes:
            break
    result = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_alap")
    result.extend(gates)
    return result


def asap_variant(circuit: QuantumCircuit,
                 selector: Optional[Callable[[Gate], bool]] = None) -> QuantumCircuit:
    """ASAP segment variant: remote gates as early as commutation allows."""
    return move_gates_earlier(circuit, selector)


def alap_variant(circuit: QuantumCircuit,
                 selector: Optional[Callable[[Gate], bool]] = None) -> QuantumCircuit:
    """ALAP segment variant: remote gates as late as commutation allows."""
    return move_gates_later(circuit, selector)


def canonical_gate_multiset(circuit: QuantumCircuit) -> List[tuple]:
    """Sorted multiset of (name, qubits, params, label) tuples.

    Two reorderings of the same circuit must have identical multisets; used
    as a cheap equivalence pre-check.
    """
    return sorted(
        (gate.name, gate.qubits, gate.params, gate.label or "")
        for gate in circuit.gates
    )


def reorder_is_equivalent(original: QuantumCircuit,
                          reordered: QuantumCircuit) -> bool:
    """Check that ``reordered`` is a commutation-legal reordering of ``original``.

    The check verifies (1) both circuits contain the same gate multiset and
    (2) for every pair of gates whose relative order differs between the two
    circuits, the two gates commute.  This is sufficient for equivalence of
    the implemented rewrites, which only ever swap adjacent commuting gates.
    """
    if original.num_qubits != reordered.num_qubits:
        return False
    if canonical_gate_multiset(original) != canonical_gate_multiset(reordered):
        return False

    # Match occurrences of identical gates between the two circuits in order.
    def occurrence_keys(circuit: QuantumCircuit) -> List[tuple]:
        seen: dict = {}
        keys = []
        for gate in circuit.gates:
            base = (gate.name, gate.qubits, gate.params, gate.label or "")
            count = seen.get(base, 0)
            seen[base] = count + 1
            keys.append((base, count))
        return keys

    original_keys = occurrence_keys(original)
    reordered_keys = occurrence_keys(reordered)
    position_in_reordered = {key: pos for pos, key in enumerate(reordered_keys)}

    original_gates = list(original.gates)
    for i in range(len(original_gates)):
        for j in range(i + 1, len(original_gates)):
            pos_i = position_in_reordered[original_keys[i]]
            pos_j = position_in_reordered[original_keys[j]]
            if pos_i > pos_j:  # relative order flipped
                if not gates_commute(original_gates[i], original_gates[j]):
                    return False
    return True
