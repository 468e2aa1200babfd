"""Unit tests for circuit transforms (ASAP/ALAP motion, reordering checks)."""

from repro.circuits import QuantumCircuit
from repro.circuits.transforms import (
    alap_variant,
    asap_variant,
    canonical_gate_multiset,
    move_gates_earlier,
    move_gates_later,
    reorder_is_equivalent,
)


def remote_positions(circuit):
    return [i for i, g in enumerate(circuit.gates) if g.is_remote]


class TestAsapAlap:
    def test_asap_moves_remote_earlier(self, small_remote_circuit):
        asap = asap_variant(small_remote_circuit)
        assert sum(remote_positions(asap)) <= sum(remote_positions(small_remote_circuit))
        assert reorder_is_equivalent(small_remote_circuit, asap)

    def test_alap_moves_remote_later(self, small_remote_circuit):
        alap = alap_variant(small_remote_circuit)
        assert sum(remote_positions(alap)) >= sum(remote_positions(small_remote_circuit))
        assert reorder_is_equivalent(small_remote_circuit, alap)

    def test_gate_multiset_preserved(self, small_remote_circuit):
        asap = asap_variant(small_remote_circuit)
        alap = alap_variant(small_remote_circuit)
        original = canonical_gate_multiset(small_remote_circuit)
        assert canonical_gate_multiset(asap) == original
        assert canonical_gate_multiset(alap) == original

    def test_diagonal_remote_gate_bubbles_past_diagonals(self):
        circuit = QuantumCircuit(3)
        circuit.rz(0.1, 0)
        circuit.cz(0, 1)
        circuit.add_gate("rzz", (1, 2), (0.5,), label="remote")
        asap = asap_variant(circuit)
        # Everything commutes, so the remote gate reaches position 0.
        assert remote_positions(asap) == [0]

    def test_blocking_gate_prevents_motion(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.add_gate("cx", (0, 1), label="remote")
        asap = asap_variant(circuit)
        # H on the control blocks commutation: the remote CX stays after it.
        assert remote_positions(asap) == [1]

    def test_max_passes_limits_motion(self):
        circuit = QuantumCircuit(4)
        for qubit in range(3):
            circuit.rz(0.1, qubit)
        circuit.add_gate("rzz", (2, 3), (0.2,), label="remote")
        limited = move_gates_earlier(circuit, max_passes=1)
        unlimited = move_gates_earlier(circuit)
        assert sum(remote_positions(unlimited)) <= sum(remote_positions(limited))

    def test_custom_selector(self, bell_circuit):
        moved = move_gates_later(bell_circuit, selector=lambda g: g.name == "h")
        # H and CX share qubit 0 and do not commute, so nothing moves.
        assert [g.name for g in moved.gates] == ["h", "cx"]


class TestEquivalenceCheck:
    def test_detects_illegal_reorder(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        swapped = QuantumCircuit(2)
        swapped.cx(0, 1)
        swapped.h(0)
        assert not reorder_is_equivalent(circuit, swapped)

    def test_accepts_legal_reorder(self):
        circuit = QuantumCircuit(3)
        circuit.rz(0.1, 0)
        circuit.rz(0.2, 2)
        reordered = QuantumCircuit(3)
        reordered.rz(0.2, 2)
        reordered.rz(0.1, 0)
        assert reorder_is_equivalent(circuit, reordered)

    def test_rejects_different_multisets(self, bell_circuit):
        other = QuantumCircuit(2)
        other.h(0)
        assert not reorder_is_equivalent(bell_circuit, other)

