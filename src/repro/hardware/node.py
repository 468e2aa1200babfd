"""A single QPU node of the distributed architecture.

Each node hosts data, communication and buffer qubits (Sec. III-B of the
paper).  A simulated run reads only their counts: the executors keep data
qubit time themselves, and the entanglement service derives its pairs and
buffer capacity from the communication and buffer counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ArchitectureError

__all__ = ["QPUNode"]


@dataclass
class QPUNode:
    """One quantum processing unit, as its qubit counts.

    Parameters
    ----------
    index:
        Node index within the architecture.
    num_data_qubits:
        Number of data qubits available for circuit evaluation.
    num_comm_qubits:
        Number of communication qubits used for entanglement generation.
    num_buffer_qubits:
        Number of buffer qubits used to store generated EPR-pair halves.
    """

    index: int
    num_data_qubits: int
    num_comm_qubits: int
    num_buffer_qubits: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ArchitectureError("node index must be non-negative")
        if self.num_data_qubits < 1:
            raise ArchitectureError("a node needs at least one data qubit")
        if self.num_comm_qubits < 0 or self.num_buffer_qubits < 0:
            raise ArchitectureError("qubit counts must be non-negative")
