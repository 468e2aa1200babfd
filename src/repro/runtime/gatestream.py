"""Array-backed gate streams: the lowered IR of the execute stage.

Re-walking :class:`~repro.circuits.gate.Gate` objects on every run pays for
attribute lookups, ``GateSpec`` registry hits, and latency-table dispatch per
gate × per seed.  All of that is deterministic per compiled cell, so the
compiler lowers the distributed program *once* into a :class:`GateStream` —
flat numpy arrays of opcodes, qubit indices, durations, remote-pair ids, and
segment ids — which the batched executor replays for any number of seeds
without ever touching a ``Gate`` again.

Adaptive designs additionally pre-lower every ASAP/ALAP/original variant of
every circuit segment (:class:`SegmentStreams`), so the run-time variant
selection swaps between pre-lowered arrays instead of re-interpreting the
chosen :class:`~repro.circuits.circuit.QuantumCircuit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.hardware.architecture import DQCArchitecture
from repro.partitioning.assigner import DistributedProgram
from repro.runtime.designs import DesignSpec
from repro.scheduling.lookup import ScheduleLookupTable
from repro.scheduling.variants import SchedulingVariant
from repro.exceptions import RuntimeSimulationError

__all__ = [
    "OP_LOCAL_1Q",
    "OP_LOCAL_2Q",
    "OP_REMOTE",
    "GateStream",
    "SegmentStreams",
    "CompiledStreams",
    "lower_circuit",
    "lower_cell",
    "segment_node_pairs",
]

#: Opcodes of the lowered gate stream.
OP_LOCAL_1Q = 0
OP_LOCAL_2Q = 1
OP_REMOTE = 2

NodePair = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class GateStream:
    """One circuit lowered to flat, immutable numpy arrays.

    ``opcodes[i]`` selects the dispatch path of gate ``i``; ``qubit_a`` /
    ``qubit_b`` are program-qubit indices (``qubit_b == -1`` for single-qubit
    gates); ``durations`` is the pre-resolved latency (for remote gates the
    teleportation latency); ``pair_ids`` indexes the cell-global remote
    node-pair list (``-1`` for local gates); ``segment_ids`` carries the
    adaptive segment of every gate (``-1`` outside adaptive designs).
    """

    opcodes: np.ndarray
    qubit_a: np.ndarray
    qubit_b: np.ndarray
    durations: np.ndarray
    pair_ids: np.ndarray
    segment_ids: np.ndarray
    num_qubits: int

    @property
    def num_gates(self) -> int:
        return int(self.opcodes.shape[0])

    def columns(self) -> Tuple[list, list, list, list, list]:
        """The stream as plain Python lists (cached).

        The replay loop indexes per gate; list indexing is markedly faster
        than numpy scalar indexing there, so the conversion is done once per
        stream and memoised on the instance.
        """
        cached = self.__dict__.get("_columns")
        if cached is None:
            cached = (
                self.opcodes.tolist(),
                self.qubit_a.tolist(),
                self.qubit_b.tolist(),
                self.durations.tolist(),
                self.pair_ids.tolist(),
            )
            object.__setattr__(self, "_columns", cached)
        return cached

    def rows(self) -> list:
        """``(opcode, qubit_a, qubit_b, duration, pair_id)`` per gate (cached).

        Tuple unpacking in the replay loop's ``for`` header beats five
        indexed list lookups per gate; built once per stream.
        """
        cached = self.__dict__.get("_rows")
        if cached is None:
            cached = list(zip(*self.columns()))
            object.__setattr__(self, "_rows", cached)
        return cached

    def __getstate__(self) -> dict:
        # The memoised list/tuple expansions roughly double the pickled
        # size of a compiled cell; workers rebuild them on first replay.
        state = dict(self.__dict__)
        state.pop("_columns", None)
        state.pop("_rows", None)
        return state


@dataclass(frozen=True, eq=False)
class SegmentStreams:
    """Pre-lowered variants and decision metadata of one adaptive segment."""

    index: int
    qubits: Tuple[int, ...]
    node_pairs: Tuple[NodePair, ...]
    variants: Dict[str, GateStream]


@dataclass(frozen=True, eq=False)
class CompiledStreams:
    """Everything the batched executor replays for one compiled cell.

    ``flat`` is the program in partitioner order (the stream non-adaptive
    designs replay directly); ``segments`` holds the per-segment variant
    streams of adaptive designs; ``pair_list`` is the cell-global remote
    node-pair table indexed by every stream's ``pair_ids``.  The static
    gate counts of the fidelity model are pre-tallied so no run ever walks
    the circuit again.
    """

    flat: GateStream
    pair_list: Tuple[NodePair, ...]
    remote_latency: float
    num_single: int
    num_local_two: int
    num_two_total: int
    num_measure: int
    segments: Optional[Tuple[SegmentStreams, ...]] = None


def _gate_counts(circuit: QuantumCircuit) -> Tuple[int, int, int, int]:
    """(single, local-2q, total-2q, measurements) of a remote-labelled circuit."""
    single = local_two = total_two = measure = 0
    for gate in circuit.gates:
        if gate.is_measurement:
            measure += 1
        elif gate.is_single_qubit:
            single += 1
        elif gate.is_two_qubit:
            total_two += 1
            if not gate.is_remote:
                local_two += 1
    return single, local_two, total_two, measure


def lower_circuit(
    circuit: QuantumCircuit,
    program: DistributedProgram,
    architecture: DQCArchitecture,
    pair_index: Dict[NodePair, int],
    treat_remote_as_local: bool = False,
    segment_ids: Optional[Sequence[int]] = None,
) -> GateStream:
    """Lower one (remote-labelled) circuit to a :class:`GateStream`.

    ``pair_index`` maps normalised remote node pairs to their cell-global
    pair id.  With ``treat_remote_as_local`` (the ideal design) remote
    labels are ignored and every gate gets its local latency.
    """
    times = architecture.gate_times
    remote_latency = times.remote_gate_latency()
    n = circuit.num_gates
    opcodes = np.zeros(n, dtype=np.int8)
    qubit_a = np.zeros(n, dtype=np.int32)
    qubit_b = np.full(n, -1, dtype=np.int32)
    durations = np.zeros(n, dtype=np.float64)
    pair_ids = np.full(n, -1, dtype=np.int32)
    segments = (
        np.asarray(segment_ids, dtype=np.int32) if segment_ids is not None
        else np.full(n, -1, dtype=np.int32)
    )
    if segments.shape[0] != n:
        raise RuntimeSimulationError(
            f"segment-id array covers {segments.shape[0]} gates, "
            f"circuit has {n}"
        )

    for index, gate in enumerate(circuit.gates):
        qubits = gate.qubits
        qubit_a[index] = qubits[0]
        if gate.is_remote and not treat_remote_as_local:
            node_a = program.node_of(qubits[0])
            node_b = program.node_of(qubits[1])
            if node_a == node_b:
                raise RuntimeSimulationError(
                    f"gate {index} is labelled remote but both operands are "
                    f"on node {node_a}"
                )
            pair = (node_a, node_b) if node_a < node_b else (node_b, node_a)
            opcodes[index] = OP_REMOTE
            qubit_b[index] = qubits[1]
            durations[index] = remote_latency
            pair_ids[index] = pair_index[pair]
        elif len(qubits) == 2:
            opcodes[index] = OP_LOCAL_2Q
            qubit_b[index] = qubits[1]
            durations[index] = times.duration_of(gate.name)
        else:
            opcodes[index] = OP_LOCAL_1Q
            durations[index] = times.duration_of(gate.name)

    return GateStream(
        opcodes=opcodes,
        qubit_a=qubit_a,
        qubit_b=qubit_b,
        durations=durations,
        pair_ids=pair_ids,
        segment_ids=segments,
        num_qubits=circuit.num_qubits,
    )


def segment_node_pairs(circuit: QuantumCircuit,
                       program: DistributedProgram) -> Tuple[NodePair, ...]:
    """Sorted remote node pairs of a (segment) circuit.

    Shared by the legacy executor's adaptive decision rule and the
    compile-time segment lowering, so both cores sum buffered-EPR counts
    over exactly the same pairs.
    """
    pairs = set()
    for gate in circuit.gates:
        if gate.is_remote:
            node_a = program.node_of(gate.qubits[0])
            node_b = program.node_of(gate.qubits[1])
            pairs.add((min(node_a, node_b), max(node_a, node_b)))
    return tuple(sorted(pairs))


def lower_cell(
    program: DistributedProgram,
    architecture: DQCArchitecture,
    design: DesignSpec,
    lookup: Optional[ScheduleLookupTable] = None,
) -> CompiledStreams:
    """Lower a compiled cell's program (and segment variants) to streams."""
    circuit = program.circuit
    pair_list = tuple(sorted(set(program.remote_pairs())))
    pair_index = {pair: i for i, pair in enumerate(pair_list)}
    single, local_two, total_two, measure = _gate_counts(circuit)

    segment_ids: Optional[List[int]] = None
    segment_streams: Optional[Tuple[SegmentStreams, ...]] = None
    if design.adaptive_scheduling and not design.ideal:
        if lookup is None:
            raise RuntimeSimulationError(
                "adaptive designs need a pre-built ScheduleLookupTable to "
                "lower segment variant streams"
            )
        segment_ids = []
        lowered_segments = []
        for segment_index in range(lookup.num_segments):
            variants = lookup.variants[segment_index]
            segment = variants.segment
            segment_ids.extend([segment_index] * segment.num_gates)
            lowered_segments.append(SegmentStreams(
                index=segment_index,
                qubits=tuple(segment.qubits_used()),
                node_pairs=segment_node_pairs(segment.circuit, program),
                variants={
                    name: lower_circuit(
                        variants.get(name), program, architecture, pair_index,
                    )
                    for name in SchedulingVariant.ALL
                },
            ))
        segment_streams = tuple(lowered_segments)
        if len(segment_ids) != circuit.num_gates:
            # Segments must tile the circuit exactly or the flat stream's
            # segment-id column would silently misalign.
            raise RuntimeSimulationError(
                f"lookup segments cover {len(segment_ids)} gates, "
                f"program has {circuit.num_gates}"
            )

    flat = lower_circuit(
        circuit, program, architecture, pair_index,
        treat_remote_as_local=design.ideal,
        segment_ids=segment_ids,
    )
    return CompiledStreams(
        flat=flat,
        pair_list=pair_list,
        remote_latency=architecture.gate_times.remote_gate_latency(),
        num_single=single,
        num_local_two=local_two,
        num_two_total=total_two,
        num_measure=measure,
        segments=segment_streams,
    )
