"""Unit tests for the text drawer."""

from repro.circuits import QuantumCircuit, draw_circuit


class TestDrawer:
    def test_drawer_contains_all_qubits(self, small_remote_circuit):
        art = draw_circuit(small_remote_circuit)
        for qubit in range(small_remote_circuit.num_qubits):
            assert f"q{qubit:>3}:" in art

    def test_remote_gates_marked(self, small_remote_circuit):
        art = draw_circuit(small_remote_circuit)
        assert "*" in art

    def test_max_layers_truncation(self):
        circuit = QuantumCircuit(1)
        for _ in range(20):
            circuit.h(0)
        art = draw_circuit(circuit, max_layers=3)
        assert "..." in art

    def test_header_line(self, bell_circuit):
        art = draw_circuit(bell_circuit)
        assert art.splitlines()[0].startswith("bell")
