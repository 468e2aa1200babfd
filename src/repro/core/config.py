"""Hardware system configuration.

:class:`SystemConfig` captures one evaluated hardware configuration (number
of nodes, data / communication / buffer qubits per node, Table II
parameters), mirroring Sec. IV-A and Sec. V of the paper.  A full
experiment (benchmarks × designs × repetitions on a system) is a
:class:`~repro.study.study.Study`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

from repro.hardware.architecture import DQCArchitecture
from repro.hardware.node import QPUNode
from repro.hardware.parameters import GateFidelities, GateTimes, PhysicalConstants
from repro.hardware.topology import get_topology
from repro.partitioning.registry import get_partitioner
from repro.exceptions import ConfigurationError, PartitionError, TopologyError

__all__ = ["SystemConfig", "PAPER_32Q_SYSTEM", "PAPER_64Q_SYSTEM"]


@dataclass(frozen=True)
class SystemConfig:
    """One DQC hardware configuration of the evaluation.

    Attributes
    ----------
    num_nodes:
        Number of QPU nodes (2 in the paper's evaluation; the architecture
        model supports more, linked by :attr:`topology`).
    data_qubits_per_node:
        Data-qubit capacity per node (16 for the 32-qubit experiments,
        32 for the 64-qubit experiments).
    comm_qubits_per_node / buffer_qubits_per_node:
        Communication and buffer qubit counts per node.
    epr_success_probability:
        Per-attempt entanglement generation success probability ``psucc``.
    decoherence_time_us / local_cnot_time_ns:
        Physical constants defining the decoherence rate.
    partition_method:
        Name of the registered partitioning strategy used to distribute
        circuits over the nodes (see :mod:`repro.partitioning.registry`;
        ``"multilevel"`` is the paper's METIS baseline).
    topology:
        Name of the registered interconnect topology (see
        :mod:`repro.hardware.topology`; ``"all_to_all"`` reproduces the
        paper's fully connected setting).  Both names are validated at
        construction so sweeps fail fast on typos.
    """

    num_nodes: int = 2
    data_qubits_per_node: int = 16
    comm_qubits_per_node: int = 10
    buffer_qubits_per_node: int = 10
    epr_success_probability: float = 0.4
    decoherence_time_us: float = 150.0
    local_cnot_time_ns: float = 300.0
    gate_times: GateTimes = field(default_factory=GateTimes)
    fidelities: GateFidelities = field(default_factory=GateFidelities)
    partition_method: str = "multilevel"
    topology: str = "all_to_all"

    def __post_init__(self) -> None:
        for name in ("num_nodes", "data_qubits_per_node",
                     "comm_qubits_per_node", "buffer_qubits_per_node"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}")
        if self.num_nodes < 2:
            raise ConfigurationError("a DQC system needs at least 2 nodes")
        if self.data_qubits_per_node < 1:
            raise ConfigurationError("each node needs at least one data qubit")
        if self.comm_qubits_per_node < 1:
            raise ConfigurationError("each node needs at least one communication qubit")
        if self.buffer_qubits_per_node < 0:
            raise ConfigurationError("buffer qubit count must be non-negative")
        try:
            partitioner = get_partitioner(self.partition_method)
        except PartitionError as error:
            raise ConfigurationError(str(error)) from None
        if self.num_nodes > 2 and not partitioner.supports_k_way:
            raise ConfigurationError(
                f"partitioner {partitioner.name!r} only supports bisection "
                f"but the system has {self.num_nodes} nodes; use a k-way "
                f"strategy such as 'multilevel'"
            )
        try:
            # links() also validates the node count (e.g. grid-2x3 needs 6).
            get_topology(self.topology).links(self.num_nodes)
        except TopologyError as error:
            raise ConfigurationError(str(error)) from None

    @property
    def total_data_qubits(self) -> int:
        """Total data qubits across the system."""
        return self.num_nodes * self.data_qubits_per_node

    def build_architecture(self) -> DQCArchitecture:
        """Materialise the :class:`DQCArchitecture` for this configuration.

        Every node gets the same qubit counts; the interconnect ``links``
        come from the registered :attr:`topology` (``None`` for
        ``all_to_all``, reproducing the paper's setting).
        """
        nodes = [
            QPUNode(index, self.data_qubits_per_node,
                    self.comm_qubits_per_node, self.buffer_qubits_per_node)
            for index in range(self.num_nodes)
        ]
        physics = PhysicalConstants(
            local_cnot_time_ns=self.local_cnot_time_ns,
            decoherence_time_us=self.decoherence_time_us,
            epr_success_probability=self.epr_success_probability,
        )
        return DQCArchitecture(
            nodes=nodes, gate_times=self.gate_times,
            fidelities=self.fidelities, physics=physics,
            links=get_topology(self.topology).links(self.num_nodes))


#: The paper's 2-node, 32-data-qubit configuration (Sec. V-A).
PAPER_32Q_SYSTEM = SystemConfig()

#: The paper's 2-node, 64-data-qubit configuration (Sec. V-C).
PAPER_64Q_SYSTEM = SystemConfig(
    data_qubits_per_node=32,
    comm_qubits_per_node=20,
    buffer_qubits_per_node=20,
)
