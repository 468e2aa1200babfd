"""Unit tests for the gate library and Gate instances."""

import numpy as np
import pytest

from repro.circuits.gate import (
    GATE_LIBRARY,
    Gate,
    GateSpec,
    gate_spec,
)
from repro.exceptions import GateError


class TestGateSpec:
    def test_library_contains_core_gates(self):
        for name in ("h", "x", "z", "rx", "rz", "cx", "cz", "rzz", "cp", "swap"):
            assert name in GATE_LIBRARY

    def test_lookup_is_case_insensitive(self):
        assert gate_spec("CX") is gate_spec("cx")

    def test_unknown_gate_raises(self):
        with pytest.raises(GateError):
            gate_spec("totally-unknown")

    def test_diagonal_flags(self):
        assert gate_spec("cz").diagonal
        assert gate_spec("rzz").diagonal
        assert gate_spec("cp").diagonal
        assert not gate_spec("cx").diagonal

    def test_invalid_spec_rejected(self):
        with pytest.raises(GateError):
            GateSpec("bad", 0)
        with pytest.raises(GateError):
            GateSpec("bad", 1, num_params=-1)


class TestGateInstances:
    def test_arity_checked(self):
        with pytest.raises(GateError):
            Gate("cx", (0,))
        with pytest.raises(GateError):
            Gate("h", (0, 1))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(GateError):
            Gate("cx", (2, 2))

    def test_negative_qubits_rejected(self):
        with pytest.raises(GateError):
            Gate("h", (-1,))

    def test_param_count_checked(self):
        with pytest.raises(GateError):
            Gate("rz", (0,))
        with pytest.raises(GateError):
            Gate("h", (0,), (0.1,))

    def test_properties(self):
        cnot = Gate("cx", (0, 1))
        assert cnot.is_two_qubit and not cnot.is_single_qubit
        assert not cnot.is_diagonal and not cnot.is_remote
        h = Gate("h", (3,))
        assert h.is_single_qubit
        measure = Gate("measure", (0,))
        assert measure.is_directive and measure.is_measurement

    def test_remote_label(self):
        gate = Gate("cx", (0, 1), label="remote")
        assert gate.is_remote
        assert gate.with_label(None).is_remote is False

    def test_remap(self):
        gate = Gate("rzz", (0, 3), (0.5,))
        remapped = gate.remap({0: 5, 3: 1})
        assert remapped.qubits == (5, 1)
        assert remapped.params == (0.5,)

    def test_shares_qubit(self):
        a = Gate("cx", (0, 1))
        b = Gate("cx", (1, 2))
        c = Gate("cx", (2, 3))
        assert a.shares_qubit(b)
        assert not a.shares_qubit(c)

    def test_hashable(self):
        assert len({Gate("h", (0,)), Gate("h", (0,)), Gate("h", (1,))}) == 2


class TestGateMatrices:
    def test_unitarity(self):
        for name in ("h", "x", "y", "z", "s", "t", "sx", "cx", "cz", "swap", "iswap"):
            spec = gate_spec(name)
            qubits = tuple(range(spec.num_qubits))
            matrix = Gate(name, qubits).matrix()
            identity = np.eye(matrix.shape[0])
            assert np.allclose(matrix @ matrix.conj().T, identity)

    def test_parametric_unitarity(self):
        for name, params in (("rx", (0.7,)), ("ry", (1.2,)), ("rz", (0.4,)),
                             ("p", (0.9,)), ("u3", (0.5, 0.2, 1.1)),
                             ("cp", (0.8,)), ("rzz", (0.6,))):
            spec = gate_spec(name)
            qubits = tuple(range(spec.num_qubits))
            matrix = Gate(name, qubits, params).matrix()
            identity = np.eye(matrix.shape[0])
            assert np.allclose(matrix @ matrix.conj().T, identity)

    def test_rz_is_diagonal(self):
        matrix = Gate("rz", (0,), (0.7,)).matrix()
        assert np.allclose(matrix, np.diag(np.diag(matrix)))

    def test_cx_action(self):
        matrix = Gate("cx", (0, 1)).matrix()
        state = np.zeros(4)
        state[2] = 1.0  # |10>
        assert np.allclose(matrix @ state, [0, 0, 0, 1])  # -> |11>

    def test_directive_has_no_matrix(self):
        with pytest.raises(GateError):
            Gate("measure", (0,)).matrix()

    def test_rzz_phases(self):
        theta = 0.6
        matrix = Gate("rzz", (0, 1), (theta,)).matrix()
        assert np.allclose(matrix[0, 0], np.exp(-1j * theta / 2))
        assert np.allclose(matrix[1, 1], np.exp(1j * theta / 2))

