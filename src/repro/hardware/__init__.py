"""DQC hardware model: QPU nodes as qubit counts, architectures, parameters."""

from repro.hardware.architecture import DQCArchitecture, two_node_architecture
from repro.hardware.node import QPUNode
from repro.hardware.parameters import (
    GateFidelities,
    GateTimes,
    HeraldedLinkModel,
    PhysicalConstants,
)
from repro.hardware.topology import (
    Topology,
    get_topology,
    list_topologies,
    register_topology,
    validate_remote_pairs,
)

__all__ = [
    "DQCArchitecture",
    "two_node_architecture",
    "Topology",
    "get_topology",
    "list_topologies",
    "register_topology",
    "validate_remote_pairs",
    "QPUNode",
    "GateTimes",
    "GateFidelities",
    "PhysicalConstants",
    "HeraldedLinkModel",
]
