"""Discrete-event execution of a distributed program on a DQC architecture.

:class:`DesignExecutor` simulates one run of a partitioned circuit under one
of the six designs of the paper.  Gates are dispatched in (possibly
adaptively re-ordered) program order; each gate starts as soon as its data
qubits are free, and remote gates additionally wait for an EPR pair from the
entanglement service of their node pair.  The executor produces an
:class:`~repro.runtime.metrics.ExecutionResult` containing the circuit depth,
the estimated output fidelity, and the entanglement statistics.

This is the **reference implementation** of the execution semantics,
reached only by constructing it (directly, through :func:`execute_design`,
or through :meth:`~repro.engine.compiler.CompiledCell.executor`).  The
production execute path is the trajectory-batched
:class:`~repro.runtime.batched.BatchedExecutor`, which replays pre-lowered
gate streams and must stay bit-identical to this executor per seed (pinned
by ``tests/test_batched.py`` and ``tests/test_golden_physics.py``);
execution traces (``collect_trace=True``) remain a feature of this
executor only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.hardware.architecture import DQCArchitecture
from repro.noise.fidelity import FidelityModel
from repro.partitioning.assigner import DistributedProgram
from repro.runtime.designs import DesignSpec, get_design
from repro.runtime.metrics import ExecutionResult
from repro.runtime.resources import DataQubitTracker, EntanglementDirectory
from repro.runtime.trace import ExecutionTrace, GateTraceEntry
from repro.scheduling.lookup import ScheduleLookupTable, build_lookup_table
from repro.scheduling.policies import AdaptivePolicy
from repro.scheduling.segmentation import default_segment_length
from repro.scheduling.variants import SchedulingVariant
from repro.exceptions import RuntimeSimulationError

__all__ = [
    "DesignExecutor",
    "execute_design",
    "build_program_lookup",
    "resolve_segment_length",
    "validate_program_capacity",
]


def resolve_segment_length(architecture: DQCArchitecture,
                           segment_length: Optional[int] = None) -> int:
    """Segment length ``m``: the override, or the paper's default.

    The default is ``#comm-pairs * psucc`` over the architecture's least
    connected node pair.  Shared by both execution cores so their adaptive
    lookup tables can never diverge.
    """
    if segment_length is not None:
        return segment_length
    pairs = architecture.node_pairs()
    comm_pairs = min(
        (architecture.comm_pairs_between(a, b) for a, b in pairs),
        default=0,
    )
    return default_segment_length(
        comm_pairs, architecture.physics.epr_success_probability
    )


def build_program_lookup(
    architecture: DQCArchitecture,
    program: DistributedProgram,
    segment_length: Optional[int] = None,
    policy: Optional[AdaptivePolicy] = None,
) -> ScheduleLookupTable:
    """Segment a program and pre-compile its schedule lookup table.

    Deterministic per (program, segment length, policy) — the engine's
    compile stage builds it once per cell and replays it across seeds.
    """
    return build_lookup_table(
        program.circuit,
        resolve_segment_length(architecture, segment_length),
        policy=policy,
    )


def validate_program_capacity(architecture: DQCArchitecture,
                              program: DistributedProgram) -> None:
    """Reject programs whose per-node qubit demand exceeds the hardware."""
    if program.num_nodes > architecture.num_nodes:
        raise RuntimeSimulationError(
            f"program uses {program.num_nodes} nodes but the architecture "
            f"has only {architecture.num_nodes}"
        )
    demands = [0] * architecture.num_nodes
    for qubit in range(program.num_qubits):
        demands[program.node_of(qubit)] += 1
    architecture.validate_capacity(demands)


class DesignExecutor:
    """Executes distributed programs under a fixed design configuration.

    Parameters
    ----------
    architecture:
        The hardware model (nodes, Table II parameters).
    design:
        A :class:`~repro.runtime.designs.DesignSpec` or a design name.
    seed:
        Seed of the stochastic entanglement-generation process.
    segment_length:
        Remote gates per segment ``m`` for adaptive scheduling; defaults to
        the paper's ``#comm-pairs * psucc``.
    adaptive_policy:
        Thresholds of the adaptive lookup rule.
    lookup:
        Optional pre-built :class:`ScheduleLookupTable` (the compile-once
        artifact of :mod:`repro.engine`); when given, adaptive runs replay
        it instead of re-segmenting the circuit.  Runs only read it: each
        counts its own variant choices.
    collect_trace:
        Whether to record a full per-gate execution trace.
    """

    def __init__(
        self,
        architecture: DQCArchitecture,
        design,
        seed: int = 0,
        segment_length: Optional[int] = None,
        adaptive_policy: Optional[AdaptivePolicy] = None,
        lookup: Optional[ScheduleLookupTable] = None,
        collect_trace: bool = False,
    ) -> None:
        self.architecture = architecture
        self.design: DesignSpec = (
            design if isinstance(design, DesignSpec) else get_design(design)
        )
        self.seed = seed
        self.fidelity_model = FidelityModel(
            fidelities=architecture.fidelities,
            kappa=architecture.decoherence_rate,
        )
        self.segment_length = segment_length
        self.adaptive_policy = adaptive_policy or AdaptivePolicy()
        self.lookup = lookup
        self.collect_trace = collect_trace
        self.last_trace: Optional[ExecutionTrace] = None

    # ------------------------------------------------------------------
    def run(self, program: DistributedProgram,
            benchmark_name: Optional[str] = None) -> ExecutionResult:
        """Simulate one execution and return its metrics."""
        benchmark_name = benchmark_name or program.name
        self._validate_capacity(program)

        if self.design.ideal:
            return self._run_ideal(program, benchmark_name)
        return self._run_distributed(program, benchmark_name)

    # ------------------------------------------------------------------
    # ideal (monolithic) execution
    # ------------------------------------------------------------------
    def _run_ideal(self, program: DistributedProgram,
                   benchmark_name: str) -> ExecutionResult:
        tracker = DataQubitTracker(program.num_qubits)
        trace = ExecutionTrace() if self.collect_trace else None
        times = self.architecture.gate_times

        for index, gate in enumerate(program.circuit.gates):
            duration = times.duration_of(gate.name)
            start = tracker.earliest_start(gate.qubits)
            finish = tracker.occupy(gate.qubits, start, duration)
            if trace is not None:
                trace.record(GateTraceEntry(index, gate.name, gate.qubits,
                                            start, finish, is_remote=False))

        makespan = tracker.makespan
        counts = self._local_counts(program.circuit, treat_remote_as_local=True)
        breakdown = self.fidelity_model.estimate(
            num_single_qubit=counts["single"],
            num_local_two_qubit=counts["two"],
            remote_link_fidelities=[],
            makespan=makespan,
            num_measurements=counts["measure"],
        )
        self.last_trace = trace
        return ExecutionResult(
            design=self.design.name,
            benchmark=benchmark_name,
            seed=self.seed,
            makespan=makespan,
            fidelity=breakdown.total,
            fidelity_breakdown=breakdown,
            num_single_qubit=counts["single"],
            num_local_two_qubit=counts["two"],
            num_remote=0,
            num_measurements=counts["measure"],
        )

    # ------------------------------------------------------------------
    # distributed execution
    # ------------------------------------------------------------------
    def _run_distributed(self, program: DistributedProgram,
                         benchmark_name: str) -> ExecutionResult:
        tracker = DataQubitTracker(program.num_qubits)
        trace = ExecutionTrace() if self.collect_trace else None
        times = self.architecture.gate_times
        directory = EntanglementDirectory(
            self.architecture,
            attempt_policy=self.design.attempt_policy,
            use_buffer=self.design.use_buffer,
            prefill=self.design.prefill_buffers,
            buffer_cutoff=self.design.buffer_cutoff,
            seed=self.seed,
            async_groups=self.design.async_groups,
        )

        link_fidelities: List[float] = []
        wait_total = 0.0
        fidelity_total = 0.0
        histogram: Dict[str, int] = {}

        if self.design.adaptive_scheduling:
            lookup = self.lookup if self.lookup is not None else self.build_lookup(program)
            histogram = dict.fromkeys(SchedulingVariant.ALL, 0)
            gate_batches = self._adaptive_batches(program, lookup, directory,
                                                  tracker, histogram)
        else:
            gate_batches = iter([list(program.circuit.gates)])

        gate_counter = 0
        for batch in gate_batches:
            for gate in batch:
                gate_counter += 1
                if gate.is_remote:
                    ready, start, link_fidelity = self._execute_remote(
                        gate, gate_counter - 1, program, tracker, directory,
                        times, trace,
                    )
                    wait = start - ready
                    if wait > 0.0:
                        wait_total += wait
                    fidelity_total += link_fidelity
                    link_fidelities.append(link_fidelity)
                else:
                    self._execute_local(gate, gate_counter - 1, tracker, times, trace)

        makespan = tracker.makespan
        directory.finalize(makespan)

        counts = self._local_counts(program.circuit, treat_remote_as_local=False)
        breakdown = self.fidelity_model.estimate(
            num_single_qubit=counts["single"],
            num_local_two_qubit=counts["two"],
            remote_link_fidelities=link_fidelities,
            makespan=makespan,
            num_measurements=counts["measure"],
        )
        self.last_trace = trace
        return ExecutionResult(
            design=self.design.name,
            benchmark=benchmark_name,
            seed=self.seed,
            makespan=makespan,
            fidelity=breakdown.total,
            fidelity_breakdown=breakdown,
            num_single_qubit=counts["single"],
            num_local_two_qubit=counts["two"],
            num_remote=len(link_fidelities),
            num_measurements=counts["measure"],
            remote_wait_total=wait_total,
            link_fidelity_total=fidelity_total,
            epr_statistics=directory.aggregate_statistics(),
            variant_histogram=histogram,
        )

    # ------------------------------------------------------------------
    # gate execution helpers
    # ------------------------------------------------------------------
    def _execute_local(self, gate: Gate, index: int, tracker: DataQubitTracker,
                       times, trace: Optional[ExecutionTrace]) -> float:
        duration = times.duration_of(gate.name)
        start = tracker.earliest_start(gate.qubits)
        finish = tracker.occupy(gate.qubits, start, duration)
        if trace is not None:
            trace.record(GateTraceEntry(index, gate.name, gate.qubits,
                                        start, finish, is_remote=False))
        return finish

    def _execute_remote(self, gate: Gate, index: int,
                        program: DistributedProgram, tracker: DataQubitTracker,
                        directory: EntanglementDirectory, times,
                        trace: Optional[ExecutionTrace],
                        ) -> Tuple[float, float, float]:
        """Run one remote gate; returns its ``(ready, start, link_fidelity)``."""
        node_a = program.node_of(gate.qubits[0])
        node_b = program.node_of(gate.qubits[1])
        if node_a == node_b:
            raise RuntimeSimulationError(
                f"gate {index} is labelled remote but both operands are on "
                f"node {node_a}"
            )
        ready = tracker.earliest_start(gate.qubits)
        service = directory.service(node_a, node_b)
        start, _created, link_fidelity = service.acquire(ready)
        duration = times.remote_gate_latency()
        finish = tracker.occupy(gate.qubits, start, duration)
        if trace is not None:
            trace.record(GateTraceEntry(index, gate.name, gate.qubits,
                                        start, finish, is_remote=True,
                                        link_fidelity=link_fidelity))
        return ready, start, link_fidelity

    # ------------------------------------------------------------------
    # adaptive scheduling
    # ------------------------------------------------------------------
    def build_lookup(self, program: DistributedProgram) -> ScheduleLookupTable:
        """Segment ``program`` and pre-compile its schedule lookup table.

        The result is deterministic per (program, segment length, policy),
        which is why the engine's compile stage builds it once per cell and
        replays it across seeds via the ``lookup`` constructor argument.
        """
        return build_program_lookup(self.architecture, program,
                                    segment_length=self.segment_length,
                                    policy=self.adaptive_policy)

    def _adaptive_batches(self, program: DistributedProgram,
                          lookup: ScheduleLookupTable,
                          directory: EntanglementDirectory,
                          tracker: DataQubitTracker,
                          histogram: Dict[str, int]):
        """Yield the gate list of every segment, choosing a variant lazily.

        The decision time of segment ``k`` is the earliest time any of its
        qubits becomes free given everything dispatched so far — i.e. the
        first instant the controller could start the segment.  The available
        EPR count ``e`` is summed over the node pairs that the segment's
        remote gates use.  Choices are counted in ``histogram``; the
        lookup table, which a compiled cell shares, is only read.
        """
        for segment_index in range(lookup.num_segments):
            segment = lookup.segment(segment_index)
            qubits = segment.qubits_used()
            decision_time = (
                min(tracker.available_time(q) for q in qubits) if qubits else
                tracker.makespan
            )
            pairs = self._segment_node_pairs(segment.circuit, program)
            if pairs:
                available = sum(
                    directory.count_available(a, b, decision_time) for a, b in pairs
                )
                variant = lookup.variant_for(segment_index, available)
                histogram[variant] += 1
                chosen = lookup.variants[segment_index].get(variant)
            else:
                chosen = segment.circuit
            yield list(chosen.gates)

    @staticmethod
    def _segment_node_pairs(circuit: QuantumCircuit,
                            program: DistributedProgram) -> List[Tuple[int, int]]:
        from repro.runtime.gatestream import segment_node_pairs

        return list(segment_node_pairs(circuit, program))

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _local_counts(circuit: QuantumCircuit,
                      treat_remote_as_local: bool) -> Dict[str, int]:
        single = 0
        two = 0
        measure = 0
        for gate in circuit.gates:
            if gate.is_measurement:
                measure += 1
            elif gate.is_single_qubit:
                single += 1
            elif gate.is_two_qubit:
                if gate.is_remote and not treat_remote_as_local:
                    continue
                two += 1
        return {"single": single, "two": two, "measure": measure}

    def _validate_capacity(self, program: DistributedProgram) -> None:
        validate_program_capacity(self.architecture, program)


def execute_design(
    program: DistributedProgram,
    architecture: DQCArchitecture,
    design,
    seed: int = 0,
    **kwargs,
) -> ExecutionResult:
    """Convenience wrapper: build an executor and run one simulation."""
    executor = DesignExecutor(architecture, design, seed=seed, **kwargs)
    return executor.run(program)
