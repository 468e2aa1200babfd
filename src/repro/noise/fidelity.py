"""Product-formula circuit-fidelity estimator.

Following Sec. IV-B of the paper, the output fidelity of a circuit execution
is estimated as the product of

* the fidelities of all local single-qubit gates,
* the fidelities of all local two-qubit gates,
* the fidelities of all remote gates implemented through gate teleportation
  (each depending on the Werner fidelity of the consumed link at consumption
  time), and
* an idling-decoherence factor ``exp(-kappa * t_idle)`` accounting for the
  latency of the execution.

Two idling conventions are supported: ``"makespan"`` (the default) penalises
the total circuit latency once, and ``"qubit-idle"`` sums the idle time of
every data qubit.  The paper does not spell out its exact convention; the
makespan form reproduces the reported magnitudes and, crucially, both forms
preserve the cross-design ordering that the evaluation cares about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.hardware.parameters import GateFidelities
from repro.noise.teleportation import remote_gate_fidelity, remote_gate_product
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
    idle_mode:
        ``"makespan"`` (default) or ``"qubit-idle"``; see the module
        docstring.
    """

    def __init__(self, fidelities: Optional[GateFidelities] = None,
                 kappa: float = 0.002, idle_mode: str = "makespan") -> None:
        if idle_mode not in ("makespan", "qubit-idle"):
            raise NoiseError(f"unknown idle mode {idle_mode!r}")
        if kappa < 0:
            raise NoiseError("decoherence rate must be non-negative")
        self.fidelities = fidelities or GateFidelities()
        self.kappa = kappa
        self.idle_mode = idle_mode

    # ------------------------------------------------------------------
    def remote_fidelity(self, link_fidelity: float) -> float:
        """Fidelity of one teleported remote gate for a given link fidelity."""
        return remote_gate_fidelity(
            link_fidelity,
            cnot_fidelity=self.fidelities.local_cnot,
            measurement_fidelity=self.fidelities.measurement,
            correction_fidelity=self.fidelities.single_qubit,
        )

    def idling_factor(self, makespan: float, qubit_idle_total: float = 0.0) -> float:
        """Idling-decoherence factor for one execution."""
        if makespan < 0 or qubit_idle_total < 0:
            raise NoiseError("latency statistics must be non-negative")
        exposure = makespan if self.idle_mode == "makespan" else qubit_idle_total
        return math.exp(-self.kappa * exposure)

    # ------------------------------------------------------------------
    def estimate(
        self,
        num_single_qubit: int,
        num_local_two_qubit: int,
        remote_link_fidelities: Sequence[float],
        makespan: float,
        num_measurements: int = 0,
        qubit_idle_total: float = 0.0,
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
            Total circuit latency in depth units.
        qubit_idle_total:
            Sum of data-qubit idle times (only used in ``"qubit-idle"`` mode).
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
        breakdown.idling_factor = self.idling_factor(makespan, qubit_idle_total)
        return breakdown

    def estimate_total(self, *args, **kwargs) -> float:
        """Same as :meth:`estimate` but returns only the scalar fidelity."""
        return self.estimate(*args, **kwargs).total
