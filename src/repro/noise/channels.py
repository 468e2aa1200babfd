"""Quantum noise channels in Kraus form.

Provides the channel the fidelity model of the paper uses: the unbiased
depolarizing channel (the local gate and correction noise of the
teleportation evaluation), with the conversion between its parameter and
an average gate fidelity.  Channels are lists of Kraus operators acting on
one to three qubits.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import NoiseError

__all__ = [
    "PAULI_MATRICES",
    "depolarizing_kraus",
    "depolarizing_parameter_for_fidelity",
    "average_gate_fidelity_of_depolarizing",
    "validate_kraus",
]

PAULI_MATRICES: Dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def validate_kraus(operators: Sequence[np.ndarray], atol: float = 1e-9) -> bool:
    """Check the completeness relation ``sum_k K_k^dagger K_k = I``."""
    if not operators:
        raise NoiseError("a channel needs at least one Kraus operator")
    dim = operators[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for op in operators:
        if op.shape != (dim, dim):
            raise NoiseError("all Kraus operators must share the same shape")
        total += op.conj().T @ op
    return bool(np.allclose(total, np.eye(dim), atol=atol))


def depolarizing_kraus(probability: float, num_qubits: int = 1) -> List[np.ndarray]:
    """Depolarizing channel ``rho -> (1-p) rho + p I / d`` on ``num_qubits``.

    The Kraus decomposition distributes the ``p`` weight uniformly over all
    non-identity Pauli strings (and part of the identity), which reproduces
    the completely depolarizing limit at ``p = 1``.
    """
    if not (0.0 <= probability <= 1.0):
        raise NoiseError("depolarizing probability must be in [0, 1]")
    if num_qubits < 1 or num_qubits > 3:
        raise NoiseError("depolarizing channel supports 1 to 3 qubits")
    dim = 2 ** num_qubits
    num_paulis = 4 ** num_qubits
    labels = list(PAULI_MATRICES)
    kraus: List[np.ndarray] = []
    identity_weight = 1.0 - probability * (num_paulis - 1) / num_paulis
    for index in range(num_paulis):
        digits = []
        value = index
        for _ in range(num_qubits):
            digits.append(value % 4)
            value //= 4
        matrix = np.array([[1.0]], dtype=complex)
        for digit in digits:
            matrix = np.kron(matrix, PAULI_MATRICES[labels[digit]])
        if index == 0:
            weight = identity_weight
        else:
            weight = probability / num_paulis
        if weight > 0:
            kraus.append(math.sqrt(weight) * matrix)
    return kraus


def depolarizing_parameter_for_fidelity(average_fidelity: float,
                                        num_qubits: int) -> float:
    """Depolarizing probability reproducing a target average gate fidelity.

    For a ``d``-dimensional depolarizing channel the average gate fidelity is
    ``F = 1 - p (d - 1) / d``; inverting gives ``p = d (1 - F) / (d - 1)``.
    """
    if not (0.0 < average_fidelity <= 1.0):
        raise NoiseError("average fidelity must be in (0, 1]")
    dim = 2 ** num_qubits
    probability = dim * (1.0 - average_fidelity) / (dim - 1)
    if probability > 1.0:
        raise NoiseError("no depolarizing channel achieves such a low fidelity")
    return probability


def average_gate_fidelity_of_depolarizing(probability: float,
                                          num_qubits: int) -> float:
    """Inverse of :func:`depolarizing_parameter_for_fidelity`."""
    dim = 2 ** num_qubits
    return 1.0 - probability * (dim - 1) / dim
