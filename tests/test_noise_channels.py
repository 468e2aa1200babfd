"""Unit tests for noise channels and the density-matrix simulator."""

import numpy as np
import pytest

from repro.circuits.gate import Gate
from repro.noise import (
    DensityMatrix,
    average_gate_fidelity_of_depolarizing,
    depolarizing_kraus,
    depolarizing_parameter_for_fidelity,
    expand_operator,
    validate_kraus,
)
from repro.exceptions import NoiseError


class TestChannels:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_depolarizing_is_trace_preserving(self, p):
        assert validate_kraus(depolarizing_kraus(p, 1))
        assert validate_kraus(depolarizing_kraus(p, 2))

    def test_fully_depolarizing_limit(self):
        rho = DensityMatrix(1)
        rho.apply_kraus(depolarizing_kraus(1.0, 1), (0,))
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-9)

    def test_fidelity_parameter_round_trip(self):
        for fidelity in (0.999, 0.99, 0.95):
            for qubits in (1, 2):
                p = depolarizing_parameter_for_fidelity(fidelity, qubits)
                assert average_gate_fidelity_of_depolarizing(p, qubits) == pytest.approx(
                    fidelity
                )

    def test_invalid_inputs(self):
        with pytest.raises(NoiseError):
            depolarizing_kraus(1.5, 1)
        with pytest.raises(NoiseError):
            depolarizing_parameter_for_fidelity(0.1, 1)


class TestDensityMatrix:
    def test_initial_state(self):
        rho = DensityMatrix(2)
        assert rho.trace() == pytest.approx(1.0)
        assert rho.purity() == pytest.approx(1.0)
        assert rho.fidelity_with_pure([1, 0, 0, 0]) == pytest.approx(1.0)

    def test_apply_gate_builds_bell_state(self):
        rho = DensityMatrix(2)
        rho.apply_gate(Gate("h", (0,)))
        rho.apply_gate(Gate("cx", (0, 1)))
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert rho.fidelity_with_pure(bell) == pytest.approx(1.0)
        assert rho.is_physical()

    def test_expand_operator_identity_consistency(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        full = expand_operator(x, (1,), 2)
        assert np.allclose(full, np.kron(np.eye(2), x))
        full0 = expand_operator(x, (0,), 2)
        assert np.allclose(full0, np.kron(x, np.eye(2)))

    def test_expand_operator_qubit_order(self):
        cx = Gate("cx", (0, 1)).matrix()
        reversed_cx = expand_operator(cx, (1, 0), 2)
        state = np.zeros(4)
        state[1] = 1.0  # |01> : qubit1 = 1 acts as control
        assert np.allclose(reversed_cx @ state, [0, 0, 0, 1])

    def test_partial_trace_of_bell_pair(self):
        rho = DensityMatrix.maximally_entangled(1)
        reduced = rho.partial_trace([0])
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-9)

    def test_partial_trace_keeps_order(self):
        rho = DensityMatrix(2)
        rho.apply_gate(Gate("x", (1,)))
        reduced = rho.partial_trace([1])
        assert reduced.fidelity_with_pure([0, 1]) == pytest.approx(1.0)

    def test_from_product(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        zero = np.array([[1, 0], [0, 0]], dtype=complex)
        rho = DensityMatrix.from_product([plus, zero])
        assert rho.num_qubits == 2
        assert rho.trace() == pytest.approx(1.0)

    def test_measurement_with_feedforward_deterministic(self):
        # Teleportation-style correction: X on qubit1 when qubit0 measures 1.
        rho = DensityMatrix(2)
        rho.apply_gate(Gate("x", (0,)))  # qubit0 = |1>
        x_matrix = Gate("x", (0,)).matrix()
        rho.measure_with_feedforward(0, corrections={1: [(x_matrix, (1,))]})
        reduced = rho.partial_trace([1])
        assert reduced.fidelity_with_pure([0, 1]) == pytest.approx(1.0)

    def test_measurement_error_mixes_outcome(self):
        rho = DensityMatrix(2)
        rho.apply_gate(Gate("x", (0,)))
        x_matrix = Gate("x", (0,)).matrix()
        rho.measure_with_feedforward(0, corrections={1: [(x_matrix, (1,))]},
                                     error_rate=0.25)
        reduced = rho.partial_trace([1])
        assert reduced.fidelity_with_pure([0, 1]) == pytest.approx(0.75)

    def test_x_basis_measurement(self):
        rho = DensityMatrix(1)
        rho.apply_gate(Gate("h", (0,)))  # |+> state
        rho.measure_with_feedforward(0, corrections={}, basis="x")
        # |+> measured in X gives outcome 0 deterministically -> state |0> in
        # the rotated frame; trace preserved either way.
        assert rho.trace() == pytest.approx(1.0)

    def test_expectation(self):
        rho = DensityMatrix(1)
        z = np.diag([1.0, -1.0])
        assert rho.expectation(z, (0,)) == pytest.approx(1.0)
        rho.apply_gate(Gate("x", (0,)))
        assert rho.expectation(z, (0,)) == pytest.approx(-1.0)

    def test_noise_reduces_purity(self):
        rho = DensityMatrix(1)
        rho.apply_kraus(depolarizing_kraus(0.2, 1), (0,))
        assert rho.purity() < 1.0
        assert rho.is_physical()

    def test_validation(self):
        with pytest.raises(NoiseError):
            DensityMatrix(0)
        with pytest.raises(NoiseError):
            DensityMatrix(20)
        with pytest.raises(NoiseError):
            DensityMatrix(1, np.eye(4))
        with pytest.raises(NoiseError):
            DensityMatrix.from_statevector([0.0, 0.0])
        rho = DensityMatrix(2)
        with pytest.raises(NoiseError):
            rho.apply_unitary(np.eye(2), (0, 1))
        with pytest.raises(NoiseError):
            rho.partial_trace([0, 0])
        with pytest.raises(NoiseError):
            rho.measure_with_feedforward(0, {}, basis="y")
