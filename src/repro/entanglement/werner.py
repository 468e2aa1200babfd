"""Werner states and buffered-entanglement fidelity decay.

The paper assumes that freshly generated Bell pairs are Werner states (a
mixture of a pure Bell state with the two-qubit maximally mixed state) and
that buffer qubits decohere through an unbiased depolarizing channel, giving
the idling dynamics

    F(t) = F0 * exp(-2 * kappa * t) + (1 - exp(-2 * kappa * t)) / 4

for the Bell-state fidelity (Sec. IV-C).  This module implements that decay
law and the corresponding density matrices used by the teleportation
fidelity evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import EntanglementError

__all__ = ["WernerState", "werner_fidelity_after", "werner_density_matrix"]

# |Phi+> Bell state in the computational basis {00, 01, 10, 11}.
_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
_PHI_PLUS_PROJECTOR = np.outer(_PHI_PLUS, _PHI_PLUS)
_MAXIMALLY_MIXED_2Q = np.eye(4) / 4.0


def werner_fidelity_after(initial_fidelity: float, elapsed: float,
                          kappa: float) -> float:
    """Bell-state fidelity after idling for ``elapsed`` time units.

    Parameters
    ----------
    initial_fidelity:
        Fidelity ``F0`` of the freshly generated pair with respect to the
        target Bell state (0.99 in Table II).
    elapsed:
        Idling duration in the same time units as ``1/kappa``.
    kappa:
        Single-qubit decoherence rate; the factor 2 in the exponent accounts
        for both halves of the pair decohering independently.

    Returns
    -------
    float
        The decayed fidelity, which approaches 1/4 (the maximally mixed
        value) as ``elapsed`` grows.
    """
    if not (0.0 <= initial_fidelity <= 1.0):
        raise EntanglementError("initial fidelity must be in [0, 1]")
    if elapsed < 0:
        raise EntanglementError("elapsed time must be non-negative")
    if kappa < 0:
        raise EntanglementError("decoherence rate must be non-negative")
    if elapsed == 0.0:
        # exp(-0.0) is exactly 1.0, so this is the decay path's value.
        return float(initial_fidelity)
    decay = np.exp(-2.0 * kappa * elapsed)
    return float(initial_fidelity * decay + (1.0 - decay) / 4.0)


def werner_density_matrix(fidelity: float) -> np.ndarray:
    """Two-qubit Werner state with the given fidelity to ``|Phi+>``.

    ``rho = p |Phi+><Phi+| + (1 - p) I/4`` with ``p = (4F - 1) / 3``.
    """
    if not (0.25 <= fidelity <= 1.0 + 1e-12):
        raise EntanglementError(
            f"Werner fidelity must be in [0.25, 1], got {fidelity}"
        )
    weight = (4.0 * fidelity - 1.0) / 3.0
    return weight * _PHI_PLUS_PROJECTOR + (1.0 - weight) * _MAXIMALLY_MIXED_2Q


@dataclass(frozen=True)
class WernerState:
    """A two-qubit Werner state parameterised by its Bell fidelity."""

    fidelity: float

    def __post_init__(self) -> None:
        if not (0.25 <= self.fidelity <= 1.0 + 1e-12):
            raise EntanglementError(
                f"Werner fidelity must be in [0.25, 1], got {self.fidelity}"
            )

    @property
    def singlet_weight(self) -> float:
        """Weight ``p`` of the pure Bell component."""
        return (4.0 * self.fidelity - 1.0) / 3.0

    def density_matrix(self) -> np.ndarray:
        """4x4 density matrix of the state."""
        return werner_density_matrix(self.fidelity)

    def after_idling(self, elapsed: float, kappa: float) -> "WernerState":
        """Return the state after idling under depolarizing decoherence."""
        return WernerState(werner_fidelity_after(self.fidelity, elapsed, kappa))

    def is_entangled(self) -> bool:
        """Werner states are entangled iff their fidelity exceeds 1/2."""
        return self.fidelity > 0.5

    def concurrence(self) -> float:
        """Concurrence of the Werner state: ``max(0, (6F - 3) / 3) / ...``.

        For a Werner state with Bell fidelity ``F`` the concurrence is
        ``max(0, (3 * singlet_weight - 1) / 2)`` which simplifies to
        ``max(0, 2F - 1)``.
        """
        return max(0.0, 2.0 * self.fidelity - 1.0)
