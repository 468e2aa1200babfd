"""Noise channels, density-matrix simulation, and fidelity models."""

from repro.noise.channels import (
    PAULI_MATRICES,
    average_gate_fidelity_of_depolarizing,
    depolarizing_kraus,
    depolarizing_parameter_for_fidelity,
    validate_kraus,
)
from repro.noise.density_matrix import DensityMatrix, expand_operator
from repro.noise.fidelity import FidelityBreakdown, FidelityModel
from repro.noise.teleportation import (
    remote_gate_fidelity,
    teleported_cnot_average_fidelity,
    teleported_cnot_process_fidelity,
)

__all__ = [
    "PAULI_MATRICES",
    "depolarizing_kraus",
    "depolarizing_parameter_for_fidelity",
    "average_gate_fidelity_of_depolarizing",
    "validate_kraus",
    "DensityMatrix",
    "expand_operator",
    "FidelityModel",
    "FidelityBreakdown",
    "remote_gate_fidelity",
    "teleported_cnot_average_fidelity",
    "teleported_cnot_process_fidelity",
]
