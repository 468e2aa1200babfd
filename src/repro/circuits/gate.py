"""Gate-level primitives of the circuit IR.

The paper's co-design framework reasons about circuits at the gate level: it
needs to know which gates are single-qubit, which two-qubit gates are *local*
(both operands on one QPU) versus *remote* (operands on different QPUs), and
which gates commute so that remote gates can be moved earlier (ASAP) or later
(ALAP) inside a circuit segment.

This module provides:

* :class:`GateSpec` — static metadata about a gate type (arity, whether the
  gate is diagonal in the computational basis, symmetry under qubit
  exchange, ...).  The metadata drives the commutation rules in
  :mod:`repro.circuits.commutation`.
* :class:`Gate` — an *instance* of a gate applied to specific qubits with
  concrete parameters.
* :data:`GATE_LIBRARY` — the registry of gate types used by the benchmark
  generators (H, X, Z, RX, RZ, CNOT, CZ, RZZ, CPHASE, SWAP, measurement, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import GateError

__all__ = [
    "GateSpec",
    "Gate",
    "GATE_LIBRARY",
    "gate_spec",
    "is_two_qubit",
    "is_single_qubit",
]


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes
    ----------
    name:
        Canonical lower-case gate name (``"cx"``, ``"rz"``...).
    num_qubits:
        Arity of the gate.
    num_params:
        Number of real parameters (rotation angles).
    diagonal:
        ``True`` if the gate's unitary is diagonal in the computational
        basis.  Diagonal two-qubit gates (CZ, RZZ, CPHASE) commute with each
        other and with Z-like single-qubit gates, which is what makes the
        ASAP/ALAP segment variants of the paper non-trivial.
    symmetric:
        ``True`` if the gate is invariant under exchange of its two qubits
        (CZ, RZZ, SWAP).  Asymmetric gates (CNOT, CPHASE with explicit
        control) distinguish control and target.
    self_inverse:
        ``True`` if applying the gate twice is the identity (for zero-
        parameter gates only).
    hermitian:
        ``True`` if the unitary is Hermitian.
    clifford:
        ``True`` if the gate is a Clifford gate for all parameter values.
    directive:
        ``True`` for non-unitary circuit elements such as measurement and
        barrier pseudo-gates.
    """

    name: str
    num_qubits: int
    num_params: int = 0
    diagonal: bool = False
    symmetric: bool = False
    self_inverse: bool = False
    hermitian: bool = False
    clifford: bool = False
    directive: bool = False

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise GateError(f"gate {self.name!r} must act on >= 1 qubit")
        if self.num_params < 0:
            raise GateError(f"gate {self.name!r} cannot have negative params")


def _build_library() -> Dict[str, GateSpec]:
    """Construct the default gate library used throughout the package."""
    specs = [
        # --- single-qubit gates -------------------------------------------
        GateSpec("id", 1, diagonal=True, symmetric=True, self_inverse=True,
                 hermitian=True, clifford=True),
        GateSpec("x", 1, self_inverse=True, hermitian=True, clifford=True),
        GateSpec("y", 1, self_inverse=True, hermitian=True, clifford=True),
        GateSpec("z", 1, diagonal=True, self_inverse=True, hermitian=True,
                 clifford=True),
        GateSpec("h", 1, self_inverse=True, hermitian=True, clifford=True),
        GateSpec("s", 1, diagonal=True, clifford=True),
        GateSpec("sdg", 1, diagonal=True, clifford=True),
        GateSpec("t", 1, diagonal=True),
        GateSpec("tdg", 1, diagonal=True),
        GateSpec("sx", 1, clifford=True),
        GateSpec("rx", 1, num_params=1),
        GateSpec("ry", 1, num_params=1),
        GateSpec("rz", 1, num_params=1, diagonal=True),
        GateSpec("p", 1, num_params=1, diagonal=True),
        GateSpec("u3", 1, num_params=3),
        # --- two-qubit gates ----------------------------------------------
        GateSpec("cx", 2, self_inverse=True, hermitian=True, clifford=True),
        GateSpec("cz", 2, diagonal=True, symmetric=True, self_inverse=True,
                 hermitian=True, clifford=True),
        GateSpec("cp", 2, num_params=1, diagonal=True, symmetric=True),
        GateSpec("rzz", 2, num_params=1, diagonal=True, symmetric=True),
        GateSpec("swap", 2, symmetric=True, self_inverse=True, hermitian=True,
                 clifford=True),
        GateSpec("iswap", 2, symmetric=True, clifford=True),
        # --- directives ----------------------------------------------------
        GateSpec("measure", 1, directive=True),
        GateSpec("reset", 1, directive=True),
        GateSpec("barrier", 1, directive=True),
    ]
    return {spec.name: spec for spec in specs}


GATE_LIBRARY: Dict[str, GateSpec] = _build_library()


def gate_spec(name: str) -> GateSpec:
    """Return the :class:`GateSpec` for ``name`` (case-insensitive)."""
    try:
        return GATE_LIBRARY[name.lower()]
    except KeyError as exc:
        raise GateError(f"unknown gate {name!r}") from exc


@dataclass(frozen=True)
class Gate:
    """A gate applied to concrete qubits.

    Qubits are referred to by integer indices into the circuit's register.
    ``Gate`` objects are immutable and hashable so they can be used as DAG
    node payloads and dictionary keys.

    Attributes
    ----------
    name:
        Gate type name; must exist in :data:`GATE_LIBRARY`.
    qubits:
        Tuple of qubit indices the gate acts on, in gate order (control
        first for controlled gates).
    params:
        Tuple of real parameters (rotation angles, radians).
    label:
        Optional free-form annotation (used e.g. to mark gates as
        ``"remote"`` after partitioning).
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default_factory=tuple)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        spec = gate_spec(self.name)
        object.__setattr__(self, "name", self.name.lower())
        qubits = tuple(int(q) for q in self.qubits)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)
        if len(qubits) != spec.num_qubits:
            raise GateError(
                f"gate {self.name!r} expects {spec.num_qubits} qubits, "
                f"got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise GateError(f"gate {self.name!r} has duplicate qubits {qubits}")
        if any(q < 0 for q in qubits):
            raise GateError(f"gate {self.name!r} has negative qubit index")
        if len(params) != spec.num_params:
            raise GateError(
                f"gate {self.name!r} expects {spec.num_params} params, "
                f"got {len(params)}"
            )

    # -- convenience metadata accessors ------------------------------------
    @property
    def spec(self) -> GateSpec:
        """The static :class:`GateSpec` of this gate."""
        return gate_spec(self.name)

    @property
    def num_qubits(self) -> int:
        """Number of qubits the gate acts on."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """``True`` for two-qubit unitary gates."""
        return self.num_qubits == 2 and not self.spec.directive

    @property
    def is_single_qubit(self) -> bool:
        """``True`` for single-qubit unitary gates."""
        return self.num_qubits == 1 and not self.spec.directive

    @property
    def is_directive(self) -> bool:
        """``True`` for measurement/reset/barrier pseudo-gates."""
        return self.spec.directive

    @property
    def is_measurement(self) -> bool:
        """``True`` only for measurement directives."""
        return self.name == "measure"

    @property
    def is_diagonal(self) -> bool:
        """``True`` if the gate is diagonal in the computational basis."""
        return self.spec.diagonal

    @property
    def is_remote(self) -> bool:
        """``True`` if this gate instance is labelled as a remote gate."""
        return self.label == "remote"

    # -- transformations ----------------------------------------------------
    def with_label(self, label: Optional[str]) -> "Gate":
        """Return a copy of this gate with a different label."""
        return Gate(self.name, self.qubits, self.params, label)

    def remap(self, mapping: Dict[int, int]) -> "Gate":
        """Return a copy with qubit indices remapped through ``mapping``.

        Qubits absent from ``mapping`` are left unchanged.
        """
        new_qubits = tuple(mapping.get(q, q) for q in self.qubits)
        return Gate(self.name, new_qubits, self.params, self.label)

    def shares_qubit(self, other: "Gate") -> bool:
        """Return ``True`` if the two gates act on at least one common qubit."""
        return bool(set(self.qubits) & set(other.qubits))

    # -- linear algebra ------------------------------------------------------
    def matrix(self) -> np.ndarray:
        """Return the unitary matrix of the gate (little-endian qubit order).

        Directives have no matrix and raise :class:`GateError`.
        """
        if self.is_directive:
            raise GateError(f"directive {self.name!r} has no unitary matrix")
        return _gate_matrix(self.name, self.params)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = f", params={self.params}" if self.params else ""
        label = f", label={self.label!r}" if self.label else ""
        return f"Gate({self.name!r}, qubits={self.qubits}{params}{label})"


def is_two_qubit(gate: Gate) -> bool:
    """Module-level helper mirroring :attr:`Gate.is_two_qubit`."""
    return gate.is_two_qubit


def is_single_qubit(gate: Gate) -> bool:
    """Module-level helper mirroring :attr:`Gate.is_single_qubit`."""
    return gate.is_single_qubit


# ---------------------------------------------------------------------------
# Unitary matrices
# ---------------------------------------------------------------------------

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2.0), 0.0], [0.0, np.exp(1j * theta / 2.0)]],
        dtype=complex,
    )


def _phase(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]], dtype=complex)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


_FIXED_1Q: Dict[str, np.ndarray] = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
}

_FIXED_2Q: Dict[str, np.ndarray] = {
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "iswap": np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def _gate_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """Return the unitary matrix for a gate type and parameters."""
    if name in _FIXED_1Q:
        return _FIXED_1Q[name].copy()
    if name in _FIXED_2Q:
        return _FIXED_2Q[name].copy()
    if name == "rx":
        return _rx(params[0])
    if name == "ry":
        return _ry(params[0])
    if name == "rz":
        return _rz(params[0])
    if name == "p":
        return _phase(params[0])
    if name == "u3":
        return _u3(*params)
    if name == "cp":
        mat = np.eye(4, dtype=complex)
        mat[3, 3] = np.exp(1j * params[0])
        return mat
    if name == "rzz":
        theta = params[0]
        phases = np.exp(
            -1j * theta / 2.0 * np.array([1.0, -1.0, -1.0, 1.0])
        )
        return np.diag(phases).astype(complex)
    raise GateError(f"no matrix implementation for gate {name!r}")
