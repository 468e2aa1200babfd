"""Circuit segmentation for adaptive scheduling.

The adaptive controller of the paper does not recompile the whole circuit at
run time; instead the circuit is statically partitioned into *segments*, each
containing ``m`` remote gates (Sec. III-D).  Every segment is pre-compiled
into ASAP and ALAP variants and the controller selects one of them at run
time based on the number of buffered EPR pairs.

``m`` is tunable; the paper sets it to the product of the number of
communication qubits and the per-attempt EPR generation probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SchedulingError

__all__ = ["CircuitSegment", "segment_circuit", "default_segment_length"]


@dataclass
class CircuitSegment:
    """A contiguous chunk of the circuit containing up to ``m`` remote gates.

    Attributes
    ----------
    index:
        Segment position within the circuit.
    circuit:
        The segment's gates as a standalone circuit over the full register.
    start_gate / end_gate:
        Gate-index range ``[start_gate, end_gate)`` in the original circuit.
    num_remote:
        Number of remote-labelled gates inside the segment.
    """

    index: int
    circuit: QuantumCircuit
    start_gate: int
    end_gate: int
    num_remote: int

    @property
    def num_gates(self) -> int:
        """Total gates in the segment."""
        return self.circuit.num_gates

    def qubits_used(self) -> tuple:
        """Qubits touched by at least one gate of the segment."""
        return self.circuit.qubits_used()


def default_segment_length(num_comm_pairs: int, success_probability: float) -> int:
    """Paper's default segment length ``m = #comm qubits * psucc`` (>= 1)."""
    if num_comm_pairs < 0:
        raise SchedulingError("communication pair count must be non-negative")
    if not (0.0 < success_probability <= 1.0):
        raise SchedulingError("success probability must be in (0, 1]")
    return max(1, int(round(num_comm_pairs * success_probability)))


def segment_circuit(circuit: QuantumCircuit,
                    remote_gates_per_segment: int) -> List[CircuitSegment]:
    """Split a circuit into contiguous segments of ``m`` remote gates each.

    A segment boundary is placed immediately after every ``m``-th remote
    gate; the trailing gates after the last remote gate form a final segment
    (which may contain no remote gates at all).  Circuits without remote
    gates yield a single segment.

    Parameters
    ----------
    circuit:
        Remote-labelled circuit (output of
        :func:`repro.partitioning.distribute_circuit`).
    remote_gates_per_segment:
        The tunable parameter ``m``.
    """
    if remote_gates_per_segment < 1:
        raise SchedulingError("segments need at least one remote gate each")

    segments: List[CircuitSegment] = []
    start = 0
    remote_in_current = 0
    gates = circuit.gates

    def close_segment(end: int) -> None:
        nonlocal start, remote_in_current
        if end <= start:
            return
        segment_circuit_obj = QuantumCircuit(
            circuit.num_qubits, name=f"{circuit.name}_seg{len(segments)}"
        )
        segment_circuit_obj.extend(gates[start:end])
        segments.append(
            CircuitSegment(
                index=len(segments),
                circuit=segment_circuit_obj,
                start_gate=start,
                end_gate=end,
                num_remote=remote_in_current,
            )
        )
        start = end
        remote_in_current = 0

    for position, gate in enumerate(gates):
        if gate.is_remote:
            remote_in_current += 1
            if remote_in_current == remote_gates_per_segment:
                close_segment(position + 1)
    close_segment(len(gates))

    if not segments:
        empty = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_seg0")
        segments.append(CircuitSegment(0, empty, 0, 0, 0))
    return segments


def reassemble(segments: List[CircuitSegment],
               num_qubits: int, name: str = "reassembled") -> QuantumCircuit:
    """Concatenate segments back into a single circuit (used by tests)."""
    circuit = QuantumCircuit(num_qubits, name=name)
    for segment in segments:
        circuit.extend(segment.circuit.gates)
    return circuit
