"""Operation latencies, fidelities, and physical constants.

This module encodes Table II of the paper (quantum operation properties) and
the system configuration of Sec. IV-A: entanglement-generation success
probability ``psucc = 0.4``, decoherence time ``1/kappa = 150 us``, and a
local CNOT time of 300 ns.  Table II is stated once, as the defaults of
:class:`GateTimes` and :class:`GateFidelities`; the report that prints it
reads them.  All latencies are expressed in units of the local CNOT time
(one "depth unit"), matching how the paper reports circuit depth.

It also provides :class:`HeraldedLinkModel`, a small physical model of
heralded remote entanglement generation (Sec. III-A): photon–qubit
entanglement probability, fibre transmission efficiency, and Bell-state-
measurement efficiency combine into the per-attempt success probability,
while photon travel and classical feedback latency determine the attempt
cycle time.  The paper's evaluation fixes ``psucc`` and ``T_EG`` directly;
the physical model backs the ablation benchmarks and examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.exceptions import ConfigurationError

__all__ = [
    "GateTimes",
    "GateFidelities",
    "PhysicalConstants",
    "HeraldedLinkModel",
]


@dataclass(frozen=True)
class GateTimes:
    """Operation latencies in units of the local CNOT time.

    Attributes mirror Table II; ``swap`` is the latency of the local SWAP
    that moves a fresh EPR half from a communication qubit into a buffer
    qubit (three back-to-back CNOTs on typical hardware, but the paper's
    depth unit treats a compiled local 2Q interaction as one unit, so the
    default is one CNOT time).
    """

    single_qubit: float = 0.1
    local_cnot: float = 1.0
    measurement: float = 5.0
    epr_generation_cycle: float = 10.0
    swap: float = 1.0
    classical_feedback: float = 0.1
    pauli_frame_tracking: bool = True

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ConfigurationError(f"gate time {name} must be non-negative")

    def as_dict(self) -> Dict[str, float]:
        """Return the latencies as a plain dictionary."""
        return {
            "single_qubit": self.single_qubit,
            "local_cnot": self.local_cnot,
            "measurement": self.measurement,
            "epr_generation_cycle": self.epr_generation_cycle,
            "swap": self.swap,
            "classical_feedback": self.classical_feedback,
        }

    def duration_of(self, gate_name: str) -> float:
        """Latency of a circuit gate by IR name."""
        if gate_name in {"measure", "reset"}:
            return self.measurement
        if gate_name == "barrier":
            return 0.0
        if gate_name == "swap":
            return self.swap
        # Any other two-qubit gate is compiled to a local CNOT-class
        # interaction; single-qubit gates share one latency.
        from repro.circuits.gate import gate_spec

        spec = gate_spec(gate_name)
        if spec.num_qubits == 1:
            return self.single_qubit
        return self.local_cnot

    def remote_gate_latency(self) -> float:
        """Latency a remote gate adds to the data qubits once an EPR pair is ready.

        Gate teleportation (Fig. 1(c)) applies a local CNOT on each side onto
        the entangled ancillas, measures the ancillas, and applies heralded
        Pauli corrections.  With Pauli-frame tracking (default) the data
        qubits only occupy the CNOT slot plus the classical feedback and a
        correction slot — the ancilla measurements proceed in parallel and
        the corrections are folded into the frame, which is why the paper's
        per-remote-gate depth overhead is close to one CNOT.  Without frame
        tracking the measurement latency lands on the data-qubit critical
        path as well.
        """
        latency = self.local_cnot + self.classical_feedback + self.single_qubit
        if not self.pauli_frame_tracking:
            latency += self.measurement
        return latency


@dataclass(frozen=True)
class GateFidelities:
    """Operation fidelities (Table II)."""

    single_qubit: float = 0.9999
    local_cnot: float = 0.999
    measurement: float = 0.998
    epr_pair: float = 0.99

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not (0.0 < value <= 1.0):
                raise ConfigurationError(f"fidelity {name} must be in (0, 1]")

    def as_dict(self) -> Dict[str, float]:
        """Return the fidelities as a plain dictionary."""
        return {
            "single_qubit": self.single_qubit,
            "local_cnot": self.local_cnot,
            "measurement": self.measurement,
            "epr_pair": self.epr_pair,
        }


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants of the DQC system (Sec. IV-A).

    Attributes
    ----------
    local_cnot_time_ns:
        Wall-clock duration of one local CNOT (300 ns in the paper), the
        length of one depth unit.
    decoherence_time_us:
        Qubit decoherence time ``1/kappa`` (150 us in the paper).
    epr_success_probability:
        Per-attempt success probability of heralded entanglement generation
        (``psucc = 0.4`` in the evaluation).
    """

    local_cnot_time_ns: float = 300.0
    decoherence_time_us: float = 150.0
    epr_success_probability: float = 0.4

    def __post_init__(self) -> None:
        if self.local_cnot_time_ns <= 0:
            raise ConfigurationError("local CNOT time must be positive")
        if self.decoherence_time_us <= 0:
            raise ConfigurationError("decoherence time must be positive")
        if not (0.0 < self.epr_success_probability <= 1.0):
            raise ConfigurationError("psucc must be in (0, 1]")

    @property
    def decoherence_rate_per_unit(self) -> float:
        """Decoherence rate ``kappa`` per depth unit (local CNOT time)."""
        return (self.local_cnot_time_ns * 1e-9) / (self.decoherence_time_us * 1e-6)


@dataclass(frozen=True)
class HeraldedLinkModel:
    """Physical model of one heralded entanglement-generation attempt.

    Implements the success-probability and cycle-time decomposition of
    Sec. III-A:

    * ``p_succ = p_pq_a * p_pq_b * eta_a * eta_b * p_bsm`` where
      ``eta = exp(-L / L_att)`` is the fibre transmission efficiency, and
    * the cycle time is the photon-emission cutoff plus photon travel to the
      Bell-state-measurement station plus classical feedback of the outcome.

    Attributes
    ----------
    photon_qubit_probability:
        Probability that a communication qubit emits an entangled photon
        within the emission cutoff window (per side).
    fiber_length_m:
        One-way fibre length from a QPU to the BSM station (10 m for the
        data-centre scenario of the paper).
    attenuation_length_km:
        Characteristic fibre attenuation length (~20 km for telecom fibre).
    bsm_efficiency:
        Success probability of the photonic Bell-state measurement,
        upper-bounded by 1/2 for linear optics.
    emission_cutoff_ns:
        Photon-emission waiting cutoff per attempt.
    classical_latency_ns:
        Detector readout / classical feedforward latency per attempt.
    speed_of_light_fiber_m_per_s:
        Photon group velocity in fibre (2e8 m/s).
    """

    photon_qubit_probability: float = 0.95
    fiber_length_m: float = 10.0
    attenuation_length_km: float = 20.0
    bsm_efficiency: float = 0.45
    emission_cutoff_ns: float = 1000.0
    classical_latency_ns: float = 1900.0
    speed_of_light_fiber_m_per_s: float = 2.0e8

    def __post_init__(self) -> None:
        if not (0.0 < self.photon_qubit_probability <= 1.0):
            raise ConfigurationError("photon-qubit probability must be in (0, 1]")
        if not (0.0 < self.bsm_efficiency <= 0.5):
            raise ConfigurationError(
                "linear-optics BSM efficiency cannot exceed 1/2"
            )
        if self.fiber_length_m < 0 or self.attenuation_length_km <= 0:
            raise ConfigurationError("invalid fibre geometry")

    @property
    def transmission_efficiency(self) -> float:
        """One-sided fibre transmission efficiency ``exp(-L / L_att)``."""
        return math.exp(-self.fiber_length_m / (self.attenuation_length_km * 1000.0))

    @property
    def success_probability(self) -> float:
        """Per-attempt success probability (both photons must arrive)."""
        eta = self.transmission_efficiency
        return (
            self.photon_qubit_probability ** 2 * eta ** 2 * self.bsm_efficiency
        )

    @property
    def photon_travel_time_ns(self) -> float:
        """One-way photon travel time to the BSM station."""
        return self.fiber_length_m / self.speed_of_light_fiber_m_per_s * 1e9

    @property
    def cycle_time_ns(self) -> float:
        """Total duration of one attempt (emission cutoff + travel + feedback)."""
        return (
            self.emission_cutoff_ns
            + self.photon_travel_time_ns
            + self.classical_latency_ns
        )

    def cycle_time_units(self, constants: PhysicalConstants) -> float:
        """Cycle time expressed in local-CNOT depth units."""
        return self.cycle_time_ns / constants.local_cnot_time_ns
