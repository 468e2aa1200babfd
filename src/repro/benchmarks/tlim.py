"""1D Transverse-Longitudinal Ising Model (TLIM) Trotter circuits.

The TLIM benchmark of the paper (following Sopena et al., "Simulating quench
dynamics on a digital quantum computer") evolves the Hamiltonian

    H = -J Σ Z_i Z_{i+1} - h_x Σ X_i - h_z Σ Z_i

on a 1D open chain using first-order Trotterisation.  Each Trotter step
contains one RZZ gate per nearest-neighbour bond (scheduled as an even-bond
layer followed by an odd-bond layer) and an RZ and RX rotation on every
qubit.  The circuit has linear connectivity, so a contiguous bisection cuts
exactly one bond per step — this is the benchmark with the smallest remote-
gate fraction in Table I.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import BenchmarkError

__all__ = ["TLIMParameters", "tlim_circuit"]


@dataclass(frozen=True)
class TLIMParameters:
    """Physical and Trotterisation parameters of the TLIM benchmark.

    Attributes
    ----------
    coupling:
        Ising ZZ coupling strength ``J``.
    transverse_field:
        Transverse field ``h_x`` (drives the RX rotations).
    longitudinal_field:
        Longitudinal field ``h_z`` (drives the RZ rotations).
    time_step:
        Trotter step size ``dt``.
    """

    coupling: float = 1.0
    transverse_field: float = 1.05
    longitudinal_field: float = 0.5
    time_step: float = 0.1

    @property
    def zz_angle(self) -> float:
        """RZZ rotation angle per step: ``-2 J dt``."""
        return -2.0 * self.coupling * self.time_step

    @property
    def rx_angle(self) -> float:
        """RX rotation angle per step: ``-2 h_x dt``."""
        return -2.0 * self.transverse_field * self.time_step

    @property
    def rz_angle(self) -> float:
        """RZ rotation angle per step: ``-2 h_z dt``."""
        return -2.0 * self.longitudinal_field * self.time_step


def tlim_circuit(
    num_qubits: int,
    num_steps: int = 10,
    parameters: TLIMParameters = TLIMParameters(),
    name: str | None = None,
) -> QuantumCircuit:
    """Build a first-order Trotter circuit for the 1D TLIM quench.

    Parameters
    ----------
    num_qubits:
        Chain length.  Must be at least 2.
    num_steps:
        Number of Trotter steps.  With the paper's 32-qubit chain and 10
        steps the circuit has 310 two-qubit gates and 640 single-qubit
        gates, matching Table I.
    parameters:
        Hamiltonian parameters (angles only affect gate parameters, not the
        circuit structure).
    name:
        Optional circuit name; defaults to ``TLIM-<n>``.

    Returns
    -------
    QuantumCircuit
        The Trotterised evolution circuit (without final measurements).
    """
    if num_qubits < 2:
        raise BenchmarkError("TLIM needs at least 2 qubits")
    if num_steps < 1:
        raise BenchmarkError("TLIM needs at least 1 Trotter step")

    circuit = QuantumCircuit(num_qubits, name=name or f"TLIM-{num_qubits}")
    even_bonds = [(i, i + 1) for i in range(0, num_qubits - 1, 2)]
    odd_bonds = [(i, i + 1) for i in range(1, num_qubits - 1, 2)]

    for _ in range(num_steps):
        for a, b in even_bonds:
            circuit.rzz(parameters.zz_angle, a, b)
        for a, b in odd_bonds:
            circuit.rzz(parameters.zz_angle, a, b)
        for qubit in range(num_qubits):
            circuit.rz(parameters.rz_angle, qubit)
        for qubit in range(num_qubits):
            circuit.rx(parameters.rx_angle, qubit)
    return circuit


def tlim_expected_counts(num_qubits: int, num_steps: int) -> dict:
    """Expected gate counts for a TLIM circuit (used by tests and Table I).

    Returns a dict with keys ``two_qubit``, ``single_qubit``, ``depth``.
    """
    return {
        "two_qubit": (num_qubits - 1) * num_steps,
        "single_qubit": 2 * num_qubits * num_steps,
        "depth": 4 * num_steps if num_qubits > 2 else 3 * num_steps,
    }
