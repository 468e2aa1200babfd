"""Unit tests for gate commutation analysis."""

import numpy as np
import pytest

from repro.circuits.commutation import gates_commute
from repro.circuits.gate import Gate


def _matrix_commute(gate_a, gate_b):
    """Brute-force commutation check used as ground truth."""
    from repro.circuits.commutation import _embed

    qubits = sorted(set(gate_a.qubits) | set(gate_b.qubits))
    a = _embed(gate_a.matrix(), gate_a.qubits, qubits)
    b = _embed(gate_b.matrix(), gate_b.qubits, qubits)
    return np.allclose(a @ b, b @ a)


class TestBasicRules:
    def test_disjoint_gates_commute(self):
        assert gates_commute(Gate("cx", (0, 1)), Gate("cx", (2, 3)))

    def test_diagonal_gates_commute(self):
        assert gates_commute(Gate("rzz", (0, 1), (0.5,)), Gate("cz", (1, 2)))
        assert gates_commute(Gate("cp", (0, 1), (0.3,)), Gate("rz", (1,), (0.2,)))

    def test_identical_gates_commute(self):
        gate = Gate("cx", (0, 1))
        assert gates_commute(gate, gate)

    def test_cnot_shared_control_commutes(self):
        assert gates_commute(Gate("cx", (0, 1)), Gate("cx", (0, 2)))

    def test_cnot_shared_target_commutes(self):
        assert gates_commute(Gate("cx", (0, 2)), Gate("cx", (1, 2)))

    def test_cnot_control_target_conflict(self):
        assert not gates_commute(Gate("cx", (0, 1)), Gate("cx", (1, 2)))

    def test_z_like_on_cnot_control(self):
        assert gates_commute(Gate("rz", (0,), (0.1,)), Gate("cx", (0, 1)))
        assert gates_commute(Gate("t", (0,)), Gate("cx", (0, 1)))

    def test_x_like_on_cnot_target(self):
        assert gates_commute(Gate("x", (1,)), Gate("cx", (0, 1)))
        assert gates_commute(Gate("rx", (1,), (0.4,)), Gate("cx", (0, 1)))

    def test_h_on_cnot_does_not_commute(self):
        assert not gates_commute(Gate("h", (0,)), Gate("cx", (0, 1)))
        assert not gates_commute(Gate("h", (1,)), Gate("cx", (0, 1)))

    def test_directives_block_same_qubit(self):
        assert not gates_commute(Gate("measure", (0,)), Gate("h", (0,)))
        assert gates_commute(Gate("measure", (0,)), Gate("h", (1,)))

    def test_cx_and_diagonal_shared_control(self):
        assert gates_commute(Gate("cx", (0, 1)), Gate("rzz", (0, 2), (0.3,)))
        assert not gates_commute(Gate("cx", (0, 1)), Gate("rzz", (1, 2), (0.3,)))


class TestAgainstMatrices:
    CASES = [
        (Gate("rzz", (0, 1), (0.7,)), Gate("rzz", (1, 2), (0.4,))),
        (Gate("cx", (0, 1)), Gate("cz", (0, 1))),
        (Gate("cx", (0, 1)), Gate("cz", (1, 2))),
        (Gate("rx", (0,), (0.5,)), Gate("rzz", (0, 1), (0.4,))),
        (Gate("cp", (0, 1), (0.9,)), Gate("cx", (1, 2))),
        (Gate("s", (1,)), Gate("cp", (0, 1), (0.2,))),
        (Gate("swap", (0, 1)), Gate("cx", (0, 1))),
        (Gate("y", (1,)), Gate("cx", (0, 1))),
    ]

    @pytest.mark.parametrize("gate_a,gate_b", CASES)
    def test_rule_matches_matrix(self, gate_a, gate_b):
        assert gates_commute(gate_a, gate_b) == _matrix_commute(gate_a, gate_b)

    def test_exact_fallback_disabled_is_conservative(self):
        # swap/cx share both qubits and have no symbolic rule.
        gate_a = Gate("swap", (0, 1))
        gate_b = Gate("iswap", (0, 1))
        assert gates_commute(gate_a, gate_b, exact_fallback=False) is False

