"""Execution metrics and results.

:class:`ExecutionResult` collects everything the evaluation needs from one
simulated run: the circuit depth (makespan in local-CNOT units), the
estimated output fidelity with its multiplicative breakdown, and the
entanglement-supply statistics (generated / consumed / wasted pairs, waiting
times) that explain *why* one design beats another.

A result holds no per-gate objects.  Its remote-gate means come from two
totals the execution cores add up in gate order, left to right from
``0.0``, as they replay: the entanglement waits and the consumed-link
fidelities.  That order is fixed on every Python version, where ``sum()``
of floats is not (3.12 compensates it).  Per-gate times stay a feature of
the reference executor's traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.noise.fidelity import FidelityBreakdown

__all__ = ["ExecutionResult"]


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution of a distributed program."""

    design: str
    benchmark: str
    seed: int
    makespan: float
    fidelity: float
    fidelity_breakdown: FidelityBreakdown
    num_single_qubit: int
    num_local_two_qubit: int
    num_remote: int
    num_measurements: int
    #: Summed wait of the remote gates for a link (``start - ready`` where
    #: positive), in gate order.
    remote_wait_total: float = 0.0
    #: Summed Werner fidelity of the links the remote gates consumed.
    link_fidelity_total: float = 0.0
    epr_statistics: Dict[str, float] = field(default_factory=dict)
    variant_histogram: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> float:
        """Circuit depth in local-CNOT units (alias for the makespan)."""
        return self.makespan

    def depth_relative_to(self, ideal_depth: float) -> float:
        """Depth normalised by an ideal (monolithic) execution depth."""
        if ideal_depth <= 0:
            return float("inf")
        return self.makespan / ideal_depth

    def fidelity_relative_to(self, ideal_fidelity: float) -> float:
        """Fidelity normalised by the ideal execution fidelity."""
        if ideal_fidelity <= 0:
            return 0.0
        return self.fidelity / ideal_fidelity

    # ------------------------------------------------------------------
    def mean_remote_wait(self) -> float:
        """Mean entanglement waiting time per remote gate."""
        if not self.num_remote:
            return 0.0
        return self.remote_wait_total / self.num_remote

    def mean_link_fidelity(self) -> float:
        """Mean consumed-link fidelity across remote gates."""
        if not self.num_remote:
            return 0.0
        return self.link_fidelity_total / self.num_remote

    def epr_waste_fraction(self) -> float:
        """Fraction of generated EPR pairs that were never consumed."""
        generated = self.epr_statistics.get("generated", 0)
        wasted = self.epr_statistics.get("wasted", 0)
        if generated <= 0:
            return 0.0
        return wasted / generated

    def summary(self) -> Dict[str, float]:
        """Flat summary used by reports and tests."""
        return {
            "design": self.design,
            "benchmark": self.benchmark,
            "depth": self.makespan,
            "fidelity": self.fidelity,
            "remote_gates": self.num_remote,
            "mean_remote_wait": self.mean_remote_wait(),
            "mean_link_fidelity": self.mean_link_fidelity(),
            "epr_generated": self.epr_statistics.get("generated", 0),
            "epr_wasted": self.epr_statistics.get("wasted", 0),
        }
