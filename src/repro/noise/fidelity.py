"""Product-formula circuit-fidelity estimator.

Following Sec. IV-B of the paper, the output fidelity of a circuit execution
is estimated as the product of

* the fidelities of all local single-qubit gates,
* the fidelities of all local two-qubit gates,
* the fidelities of all remote gates implemented through gate teleportation
  (each depending on the Werner fidelity of the consumed link at consumption
  time), and
* an idling-decoherence factor ``exp(-kappa * t)`` accounting for the
  latency of the execution.

The paper does not spell out which latency ``t`` is; here it is the
makespan, charged once per execution.  That form reproduces the reported
magnitudes and preserves the cross-design ordering the evaluation cares
about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.hardware.parameters import GateFidelities
from repro.noise.teleportation import remote_gate_product
from repro.exceptions import NoiseError

__all__ = ["FidelityModel", "FidelityBreakdown"]


@dataclass
class FidelityBreakdown:
    """Multiplicative components of one circuit-fidelity estimate."""

    single_qubit_factor: float = 1.0
    local_two_qubit_factor: float = 1.0
    measurement_factor: float = 1.0
    remote_factor: float = 1.0
    idling_factor: float = 1.0

    @property
    def total(self) -> float:
        """Product of all factors."""
        return (
            self.single_qubit_factor
            * self.local_two_qubit_factor
            * self.measurement_factor
            * self.remote_factor
            * self.idling_factor
        )


class FidelityModel:
    """Estimates circuit output fidelity from execution statistics.

    Parameters
    ----------
    fidelities:
        Table II gate fidelities.
    kappa:
        Decoherence rate per depth unit.
    """

    def __init__(self, fidelities: Optional[GateFidelities] = None,
                 kappa: float = 0.002) -> None:
        if kappa < 0:
            raise NoiseError("decoherence rate must be non-negative")
        self.fidelities = fidelities or GateFidelities()
        self.kappa = kappa

    # ------------------------------------------------------------------
    def idling_factor(self, makespan: float) -> float:
        """Idling-decoherence factor ``exp(-kappa * makespan)``."""
        if makespan < 0:
            raise NoiseError("makespan must be non-negative")
        return math.exp(-self.kappa * makespan)

    # ------------------------------------------------------------------
    def estimate(
        self,
        num_single_qubit: int,
        num_local_two_qubit: int,
        remote_link_fidelities: Sequence[float],
        makespan: float,
        num_measurements: int = 0,
    ) -> FidelityBreakdown:
        """Estimate the output fidelity of one execution.

        Parameters
        ----------
        num_single_qubit / num_local_two_qubit / num_measurements:
            Local operation counts of the executed circuit.
        remote_link_fidelities:
            The Werner fidelity of the link consumed by every remote gate, at
            its consumption time.
        makespan:
            Total circuit latency in depth units; the idling factor's
            exposure.
        """
        if num_single_qubit < 0 or num_local_two_qubit < 0 or num_measurements < 0:
            raise NoiseError("gate counts must be non-negative")
        breakdown = FidelityBreakdown()
        breakdown.single_qubit_factor = self.fidelities.single_qubit ** num_single_qubit
        breakdown.local_two_qubit_factor = (
            self.fidelities.local_cnot ** num_local_two_qubit
        )
        breakdown.measurement_factor = self.fidelities.measurement ** num_measurements
        breakdown.remote_factor = remote_gate_product(
            remote_link_fidelities,
            cnot_fidelity=self.fidelities.local_cnot,
            measurement_fidelity=self.fidelities.measurement,
            correction_fidelity=self.fidelities.single_qubit,
        )
        breakdown.idling_factor = self.idling_factor(makespan)
        return breakdown

    def estimate_total(self, *args, **kwargs) -> float:
        """Same as :meth:`estimate` but returns only the scalar fidelity."""
        return self.estimate(*args, **kwargs).total
