"""Gate-teleportation fidelity evaluation.

Implements the remote-CNOT fidelity model of Sec. IV-C: the fidelity of a
remote gate is obtained by simulating the gate-teleportation circuit
(Fig. 1(c)) on the density-matrix simulator with

* a noisy (Werner) Bell resource state whose fidelity reflects how long the
  link idled in the buffer,
* noisy local two-qubit gates (depolarizing noise matched to the Table II
  CNOT fidelity), and
* noisy single-qubit measurements (classical readout error matched to the
  Table II measurement fidelity).

The protocol teleports a CNOT between two data qubits on different nodes
using one ebit: the control-side node entangles its data qubit with its ebit
half and measures in Z; the target-side node applies a CNOT from its ebit
half onto the target and measures in X; each side applies the heralded Pauli
correction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.entanglement.werner import werner_density_matrix
from repro.hardware.parameters import GateFidelities
from repro.noise.channels import (
    depolarizing_kraus,
    depolarizing_parameter_for_fidelity,
)
from repro.noise.density_matrix import DensityMatrix
from repro.exceptions import NoiseError

__all__ = [
    "teleported_cnot_process_fidelity",
    "teleported_cnot_average_fidelity",
    "remote_gate_fidelity",
    "remote_gate_product",
]

# Register layout used for the Choi-state evaluation:
#   0: reference of the control, 1: control data qubit,
#   2: ebit half on the control node, 3: ebit half on the target node,
#   4: target data qubit, 5: reference of the target.
_REF_C, _CTRL, _EBIT_C, _EBIT_T, _TARGET, _REF_T = range(6)

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_BELL = np.zeros(4, dtype=complex)
_BELL[0] = _BELL[3] = 1.0 / np.sqrt(2.0)
_BELL_DM = np.outer(_BELL, _BELL.conj())


def _ideal_choi_target() -> np.ndarray:
    """Pure 4-qubit target state: CNOT applied to two reference Bell pairs.

    Qubit order of the returned state vector: (ref_c, control, target, ref_t).
    """
    state = DensityMatrix.from_product([_BELL_DM, _BELL_DM])
    # Qubits now: 0 ref_c, 1 control, 2 target, 3 ref_t — wait, from_product
    # of two Bell pairs yields (0,1) and (2,3); we want the CNOT between
    # qubits 1 (control) and 2 (target).
    state.apply_unitary(_CNOT, (1, 2))
    matrix = state.matrix
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return eigenvectors[:, int(np.argmax(eigenvalues))]


_IDEAL_TARGET = _ideal_choi_target()


@lru_cache(maxsize=2048)
def teleported_cnot_process_fidelity(
    link_fidelity: float,
    cnot_fidelity: float = GateFidelities.local_cnot,
    measurement_fidelity: float = GateFidelities.measurement,
    correction_fidelity: float = GateFidelities.single_qubit,
) -> float:
    """Process (entanglement) fidelity of the teleported CNOT channel.

    Parameters
    ----------
    link_fidelity:
        Werner fidelity of the consumed entanglement link at consumption
        time (0.99 fresh, lower after buffering).
    cnot_fidelity:
        Average gate fidelity of the local CNOTs.
    measurement_fidelity:
        Single-qubit measurement fidelity; its complement is the
        probability of applying the wrong Pauli correction.
    correction_fidelity:
        Average gate fidelity of the single-qubit Pauli corrections.

    The three gate fidelities default to Table II's, the
    :class:`~repro.hardware.parameters.GateFidelities` defaults.
    """
    if not (0.25 <= link_fidelity <= 1.0 + 1e-12):
        raise NoiseError(f"link fidelity {link_fidelity} outside [0.25, 1]")
    link_fidelity = min(1.0, link_fidelity)

    state = DensityMatrix.from_product(
        [
            _BELL_DM,                      # (ref_c, control)
            werner_density_matrix(link_fidelity),  # (ebit_c, ebit_t)
            _BELL_DM,                      # (target, ref_t)
        ]
    )
    # Register order after the product: 0 ref_c, 1 control, 2 ebit_c,
    # 3 ebit_t, 4 target, 5 ref_t — matching the module-level constants.

    cnot_noise = depolarizing_kraus(
        depolarizing_parameter_for_fidelity(cnot_fidelity, 2), 2
    )
    correction_noise = depolarizing_kraus(
        depolarizing_parameter_for_fidelity(correction_fidelity, 1), 1
    )
    readout_error = 1.0 - measurement_fidelity

    # Control node: CNOT from the control data qubit onto its ebit half.
    state.apply_unitary(_CNOT, (_CTRL, _EBIT_C))
    state.apply_kraus(cnot_noise, (_CTRL, _EBIT_C))
    # Measure the control-side ebit in Z; X correction on the target-side ebit.
    state.measure_with_feedforward(
        _EBIT_C, corrections={1: [(_X, (_EBIT_T,))]}, error_rate=readout_error,
        basis="z",
    )
    state.apply_kraus(correction_noise, (_EBIT_T,))

    # Target node: CNOT from its ebit half onto the target data qubit.
    state.apply_unitary(_CNOT, (_EBIT_T, _TARGET))
    state.apply_kraus(cnot_noise, (_EBIT_T, _TARGET))
    # Measure the target-side ebit in X; Z correction on the control qubit.
    state.measure_with_feedforward(
        _EBIT_T, corrections={1: [(_Z, (_CTRL,))]}, error_rate=readout_error,
        basis="x",
    )
    state.apply_kraus(correction_noise, (_CTRL,))

    reduced = state.partial_trace([_REF_C, _CTRL, _TARGET, _REF_T])
    return float(reduced.fidelity_with_pure(_IDEAL_TARGET))


def teleported_cnot_average_fidelity(
    link_fidelity: float,
    cnot_fidelity: float = GateFidelities.local_cnot,
    measurement_fidelity: float = GateFidelities.measurement,
    correction_fidelity: float = GateFidelities.single_qubit,
) -> float:
    """Average gate fidelity of the teleported CNOT.

    Converted from the process fidelity via ``F_avg = (d F_pro + 1)/(d + 1)``
    with ``d = 4``.
    """
    process = teleported_cnot_process_fidelity(
        link_fidelity, cnot_fidelity, measurement_fidelity, correction_fidelity
    )
    return (4.0 * process + 1.0) / 5.0


@lru_cache(maxsize=256)
def _affine_coefficients(
    cnot_fidelity: float,
    measurement_fidelity: float,
    correction_fidelity: float,
) -> tuple:
    """``(value_at_F=0.25, slope)`` of the average fidelity in ``F``.

    The teleportation channel is a completely positive map, hence *linear*
    in the input density matrix; the Werner resource state is affine in its
    Bell fidelity ``F``; and both the process-fidelity overlap and the
    process→average conversion are affine maps.  The average remote-gate
    fidelity is therefore exactly affine in ``F``, so two density-matrix
    evaluations (at the Werner extremes 0.25 and 1.0) determine it for
    every link fidelity — numerically verified to machine epsilon in
    ``tests/test_teleportation_fidelity.py``.
    """
    at_min = teleported_cnot_average_fidelity(
        0.25, cnot_fidelity, measurement_fidelity, correction_fidelity
    )
    at_max = teleported_cnot_average_fidelity(
        1.0, cnot_fidelity, measurement_fidelity, correction_fidelity
    )
    return at_min, (at_max - at_min) / 0.75


def remote_gate_fidelity(
    link_fidelity: float,
    cnot_fidelity: float = GateFidelities.local_cnot,
    measurement_fidelity: float = GateFidelities.measurement,
    correction_fidelity: float = GateFidelities.single_qubit,
) -> float:
    """Remote-gate fidelity for a link fidelity, in O(1) after two sims.

    The executor consumes a link per remote gate per run, each with its own
    decayed fidelity; evaluating the 6-qubit teleportation circuit for every
    distinct value dominated execution wall-time.  The channel's exact
    affine dependence on the link fidelity (see
    :func:`_affine_coefficients`) reduces each call to a fused
    multiply-add, with the two anchor simulations cached per local-noise
    configuration.
    """
    return remote_gate_product((link_fidelity,), cnot_fidelity,
                               measurement_fidelity, correction_fidelity)


def remote_gate_product(
    link_fidelities: Iterable[float],
    cnot_fidelity: float = GateFidelities.local_cnot,
    measurement_fidelity: float = GateFidelities.measurement,
    correction_fidelity: float = GateFidelities.single_qubit,
) -> float:
    """Product of :func:`remote_gate_fidelity` over ``link_fidelities``.

    Looks the cached affine coefficients up once for the whole sequence, so
    a run's remote factor costs one multiply-add per link.
    """
    at_min, slope = _affine_coefficients(
        cnot_fidelity, measurement_fidelity, correction_fidelity
    )
    product = 1.0
    for link_fidelity in link_fidelities:
        # min(1.0, max(0.25, link_fidelity)), without two calls per link.
        clamped = link_fidelity if link_fidelity > 0.25 else 0.25
        clamped = clamped if clamped < 1.0 else 1.0
        product *= at_min + slope * (clamped - 0.25)
    return product
