"""Gate commutation analysis.

The adaptive scheduler of the paper creates ASAP and ALAP variants of a
circuit segment by *commuting remote gates* past neighbouring gates.  This
module decides whether two gates commute.  It uses fast symbolic rules for
the common cases that appear in the benchmarks (diagonal ZZ/CP interactions,
CNOTs sharing controls or targets, Z-like and X-like single-qubit rotations)
and falls back to an exact unitary check on the joint support for anything
else.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.circuits.gate import Gate

__all__ = ["gates_commute"]

# Single-qubit gates diagonal in the Z basis (commute with CX controls and
# with any diagonal two-qubit gate).
_Z_LIKE = frozenset({"id", "z", "s", "sdg", "t", "tdg", "rz", "p"})
# Single-qubit gates diagonal in the X basis (commute with CX targets).
_X_LIKE = frozenset({"id", "x", "rx"})


def _qubit_role(gate: Gate, qubit: int) -> str:
    """Return 'control', 'target', or 'both' for the given qubit of a gate."""
    if gate.name == "cx":
        return "control" if gate.qubits[0] == qubit else "target"
    return "both"


def _symbolic_commute(gate_a: Gate, gate_b: Gate) -> Tuple[bool, bool]:
    """Try to decide commutation by rules.

    Returns ``(decided, commutes)``.  When ``decided`` is False the caller
    should fall back to the exact matrix check.
    """
    shared = set(gate_a.qubits) & set(gate_b.qubits)
    if not shared:
        return True, True

    # Both diagonal in computational basis -> always commute.
    if gate_a.is_diagonal and gate_b.is_diagonal:
        return True, True

    # Identical gates always commute with themselves.
    if (
        gate_a.name == gate_b.name
        and gate_a.qubits == gate_b.qubits
        and gate_a.params == gate_b.params
    ):
        return True, True

    # CX / CX rules.
    if gate_a.name == "cx" and gate_b.name == "cx":
        roles = {( _qubit_role(gate_a, q), _qubit_role(gate_b, q)) for q in shared}
        # Commute iff on every shared qubit the roles match (control-control
        # or target-target).
        commutes = all(role_a == role_b for role_a, role_b in roles)
        return True, commutes

    # Single-qubit vs CX.
    for one_q, cx in ((gate_a, gate_b), (gate_b, gate_a)):
        if one_q.is_single_qubit and cx.name == "cx":
            qubit = one_q.qubits[0]
            role = _qubit_role(cx, qubit)
            if role == "control" and one_q.name in _Z_LIKE:
                return True, True
            if role == "target" and one_q.name in _X_LIKE:
                return True, True
            return True, False

    # Single-qubit vs diagonal two-qubit gate (cz / cp / rzz): commutes iff
    # the single-qubit gate is Z-like.
    for one_q, two_q in ((gate_a, gate_b), (gate_b, gate_a)):
        if one_q.is_single_qubit and two_q.is_two_qubit and two_q.is_diagonal:
            return True, one_q.name in _Z_LIKE

    # CX vs diagonal two-qubit gate: commutes iff the shared qubits are all
    # controls of the CX (diagonal gates act like Z-like on each qubit).
    for cx, diag in ((gate_a, gate_b), (gate_b, gate_a)):
        if cx.name == "cx" and diag.is_two_qubit and diag.is_diagonal:
            commutes = all(_qubit_role(cx, q) == "control" for q in shared)
            return True, commutes

    return False, False


def _embed(matrix: np.ndarray, gate_qubits: Sequence[int],
           all_qubits: Sequence[int]) -> np.ndarray:
    """Embed a 1- or 2-qubit unitary into the joint space of ``all_qubits``.

    Qubit ordering follows ``all_qubits`` with the first entry as the most
    significant bit; only used internally for the exact commutation check so
    any consistent convention works.
    """
    index_of = {q: i for i, q in enumerate(all_qubits)}
    n = len(all_qubits)
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    gate_positions = [index_of[q] for q in gate_qubits]
    other_positions = [i for i in range(n) if i not in gate_positions]
    for row in range(dim):
        row_bits = [(row >> (n - 1 - i)) & 1 for i in range(n)]
        for col in range(dim):
            col_bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
            if any(row_bits[i] != col_bits[i] for i in other_positions):
                continue
            sub_row = 0
            sub_col = 0
            for k, pos in enumerate(gate_positions):
                sub_row = (sub_row << 1) | row_bits[pos]
                sub_col = (sub_col << 1) | col_bits[pos]
            full[row, col] = matrix[sub_row, sub_col]
    return full


def _exact_commute(gate_a: Gate, gate_b: Gate) -> bool:
    """Exact check on the joint support (at most 4 qubits for 2Q gates)."""
    all_qubits = sorted(set(gate_a.qubits) | set(gate_b.qubits))
    matrix_a = _embed(gate_a.matrix(), gate_a.qubits, all_qubits)
    matrix_b = _embed(gate_b.matrix(), gate_b.qubits, all_qubits)
    commutator = matrix_a @ matrix_b - matrix_b @ matrix_a
    return bool(np.allclose(commutator, 0.0, atol=1e-9))


def gates_commute(gate_a: Gate, gate_b: Gate, exact_fallback: bool = True) -> bool:
    """Return ``True`` if the two gates commute as operators.

    Directives (measure / reset / barrier) never commute with gates that
    share a qubit, which keeps them as scheduling fences.

    Parameters
    ----------
    gate_a, gate_b:
        The gates to compare.
    exact_fallback:
        If ``True`` (default) an exact matrix check is used when no symbolic
        rule applies; otherwise undecided cases conservatively return
        ``False``.
    """
    if gate_a.is_directive or gate_b.is_directive:
        return not gate_a.shares_qubit(gate_b)
    decided, commutes = _symbolic_commute(gate_a, gate_b)
    if decided:
        return commutes
    if not exact_fallback:
        return False
    return _exact_commute(gate_a, gate_b)
