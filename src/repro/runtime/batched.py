"""Trajectory-batched execution of compiled gate streams.

:class:`BatchedExecutor` is the production execution core: it replays a
pre-lowered :class:`~repro.runtime.gatestream.CompiledStreams` for a whole
batch of seeds in one pass, sharing every per-cell artifact (gate rows,
static gate counts, segment metadata, the schedule lookup table) across the
batch.  Only the entanglement process is stochastic, so the per-seed replay
touches plain floats and the entanglement services — never ``Gate``
objects, latency tables, or circuit walks.  The compiler builds both the
streams and the lookup table;
:meth:`~repro.engine.compiler.CompiledCell.execute_batch` is the one place
that constructs this executor.

Results are **bit-identical** to the reference
:class:`~repro.runtime.executor.DesignExecutor` for the same seed: both
cores drive the same :class:`~repro.runtime.resources.EntanglementDirectory`
(whose generators draw identical variate streams, see
:mod:`repro.entanglement.generator`), apply the same float arithmetic in the
same order for gate timing, and call the same fidelity model.
``tests/test_batched.py`` pins the equivalence across every design,
topology, and the adaptive scheduling path.

A batch's generators read their variates from the caller's
:class:`~repro.entanglement.generator.VariateTable`: a backend passes one
table to every batch of a call, so the designs and benchmarks of a run
seed draw its variates once.  The reference executor reads a private table
per generator; the variates, and so the results, are the same.

The ideal (monolithic) design is deterministic per cell, so a seed batch
simulates it once and stamps per-seed results from the shared outcome.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.entanglement.generator import VariateTable
from repro.exceptions import RuntimeSimulationError
from repro.hardware.architecture import DQCArchitecture
from repro.noise.fidelity import FidelityModel
from repro.partitioning.assigner import DistributedProgram
from repro.runtime.designs import DesignSpec, get_design
from repro.runtime.executor import validate_program_capacity
from repro.runtime.gatestream import (
    OP_LOCAL_2Q,
    OP_REMOTE,
    CompiledStreams,
    GateStream,
)
from repro.runtime.metrics import ExecutionResult, RemoteGateRecord
from repro.runtime.resources import EntanglementDirectory
from repro.scheduling.lookup import ScheduleLookupTable
from repro.scheduling.variants import SchedulingVariant

__all__ = ["BatchedExecutor"]


class BatchedExecutor:
    """Replays compiled gate streams for batches of seeds.

    ``streams`` is the compiler's :func:`~repro.runtime.gatestream.lower_cell`
    output for ``design``; adaptive designs also need the
    :class:`ScheduleLookupTable` their segment streams were lowered from.
    Seeds are batch inputs, and tracing stays a feature of the reference
    :class:`~repro.runtime.executor.DesignExecutor`.
    """

    def __init__(
        self,
        architecture: DQCArchitecture,
        design,
        streams: CompiledStreams,
        lookup: Optional[ScheduleLookupTable] = None,
    ) -> None:
        self.architecture = architecture
        self.design: DesignSpec = (
            design if isinstance(design, DesignSpec) else get_design(design)
        )
        if streams.segments is not None and lookup is None:
            raise RuntimeSimulationError(
                "adaptive segment streams replay the ScheduleLookupTable "
                "they were lowered from; pass it as lookup"
            )
        self.fidelity_model = FidelityModel(
            fidelities=architecture.fidelities,
            kappa=architecture.decoherence_rate,
        )
        self.lookup = lookup
        self.streams = streams

    # ------------------------------------------------------------------
    def run_batch(self, program: DistributedProgram, seeds: Sequence[int],
                  benchmark_name: Optional[str] = None, *,
                  variates: Optional[VariateTable] = None,
                  ) -> List[ExecutionResult]:
        """Replay the program under every seed; results in seed order.

        ``variates`` is the table the entanglement generators read their
        variates from; the caller may share it with other cells' batches.
        """
        benchmark_name = benchmark_name or program.name
        validate_program_capacity(self.architecture, program)
        seeds = list(seeds)
        if not seeds:
            return []
        if self.design.ideal:
            return self._run_ideal_batch(benchmark_name, seeds)
        lookup = self.lookup if self.design.adaptive_scheduling else None
        return [
            self._run_one(program, lookup, benchmark_name, seed, variates)
            for seed in seeds
        ]

    # ------------------------------------------------------------------
    # stochastic (distributed) replay
    # ------------------------------------------------------------------
    def _run_one(self, program: DistributedProgram,
                 lookup: Optional[ScheduleLookupTable], benchmark_name: str,
                 seed: int,
                 variates: Optional[VariateTable]) -> ExecutionResult:
        design = self.design
        streams = self.streams
        architecture = self.architecture
        directory = EntanglementDirectory(
            architecture,
            attempt_policy=design.attempt_policy,
            use_buffer=design.use_buffer,
            prefill=design.prefill_buffers,
            buffer_cutoff=design.buffer_cutoff,
            seed=seed,
            async_groups=design.async_groups,
            variates=variates,
        )

        num_qubits = program.num_qubits
        avail = [0.0] * num_qubits
        busy = [0.0] * num_qubits
        first_use: List[Optional[float]] = [None] * num_qubits
        remote_records: List[RemoteGateRecord] = []
        services = [None] * len(streams.pair_list)
        remote_latency = streams.remote_latency
        gate_counter = 0

        def play(stream: GateStream) -> None:
            nonlocal gate_counter
            for op, a, b, duration, pair_id in stream.rows:
                if op == OP_REMOTE:
                    time_a = avail[a]
                    time_b = avail[b]
                    ready = time_a if time_a >= time_b else time_b
                    service = services[pair_id]
                    if service is None:
                        pair = streams.pair_list[pair_id]
                        service = directory.service(pair[0], pair[1])
                        services[pair_id] = service
                    start, created, fidelity = service.acquire(ready)
                    finish = start + remote_latency
                    avail[a] = finish
                    avail[b] = finish
                    busy[a] += remote_latency
                    busy[b] += remote_latency
                    if first_use[a] is None:
                        first_use[a] = start
                    if first_use[b] is None:
                        first_use[b] = start
                    remote_records.append(RemoteGateRecord(
                        gate_index=gate_counter,
                        ready_time=ready,
                        start_time=start,
                        finish_time=finish,
                        link_created_time=created,
                        link_fidelity=fidelity,
                    ))
                elif op == OP_LOCAL_2Q:
                    time_a = avail[a]
                    time_b = avail[b]
                    start = time_a if time_a >= time_b else time_b
                    finish = start + duration
                    avail[a] = finish
                    avail[b] = finish
                    busy[a] += duration
                    busy[b] += duration
                    if first_use[a] is None:
                        first_use[a] = start
                    if first_use[b] is None:
                        first_use[b] = start
                else:
                    start = avail[a]
                    avail[a] = start + duration
                    busy[a] += duration
                    if first_use[a] is None:
                        first_use[a] = start
                gate_counter += 1

        if lookup is not None:
            lookup.reset_decisions()
            for segment in streams.segments:
                if segment.qubits:
                    decision_time = min(avail[q] for q in segment.qubits)
                else:
                    decision_time = max(avail)
                if segment.node_pairs:
                    available = sum(
                        directory.count_available(a, b, decision_time)
                        for a, b in segment.node_pairs
                    )
                    chosen = lookup.select_name(segment.index, available,
                                                decision_time)
                else:
                    chosen = SchedulingVariant.ORIGINAL
                play(segment.variants[chosen])
        else:
            play(streams.flat)

        makespan = max(avail)
        directory.finalize(makespan)

        idle_total = 0.0
        for qubit in range(num_qubits):
            first = first_use[qubit]
            if first is None:
                continue
            span = makespan - first
            if span < 0.0:
                span = 0.0
            idle = span - busy[qubit]
            if idle > 0.0:
                idle_total += idle

        breakdown = self.fidelity_model.estimate(
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_local_two,
            remote_link_fidelities=[
                record.link_fidelity for record in remote_records
            ],
            makespan=makespan,
            num_measurements=streams.num_measure,
            qubit_idle_total=idle_total,
        )
        return ExecutionResult(
            design=design.name,
            benchmark=benchmark_name,
            seed=seed,
            makespan=makespan,
            fidelity=breakdown.total,
            fidelity_breakdown=breakdown,
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_local_two,
            num_remote=len(remote_records),
            num_measurements=streams.num_measure,
            qubit_idle_total=idle_total,
            remote_records=remote_records,
            epr_statistics=directory.aggregate_statistics(),
            variant_histogram=(lookup.variant_histogram() if lookup else {}),
        )

    # ------------------------------------------------------------------
    # deterministic (ideal) replay
    # ------------------------------------------------------------------
    def _run_ideal_batch(self, benchmark_name: str,
                         seeds: Sequence[int]) -> List[ExecutionResult]:
        streams = self.streams
        stream = streams.flat
        num_qubits = stream.num_qubits
        avail = [0.0] * num_qubits
        busy = [0.0] * num_qubits
        first_use: List[Optional[float]] = [None] * num_qubits
        for op, a, b, duration, _pair in stream.rows:
            if op == OP_LOCAL_2Q:
                time_a = avail[a]
                time_b = avail[b]
                start = time_a if time_a >= time_b else time_b
                finish = start + duration
                avail[a] = finish
                avail[b] = finish
                busy[a] += duration
                busy[b] += duration
                if first_use[a] is None:
                    first_use[a] = start
                if first_use[b] is None:
                    first_use[b] = start
            else:
                start = avail[a]
                avail[a] = start + duration
                busy[a] += duration
                if first_use[a] is None:
                    first_use[a] = start

        makespan = max(avail)
        idle_total = 0.0
        for qubit in range(num_qubits):
            first = first_use[qubit]
            if first is None:
                continue
            span = makespan - first
            if span < 0.0:
                span = 0.0
            idle = span - busy[qubit]
            if idle > 0.0:
                idle_total += idle

        breakdown = self.fidelity_model.estimate(
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_two_total,
            remote_link_fidelities=[],
            makespan=makespan,
            num_measurements=streams.num_measure,
            qubit_idle_total=idle_total,
        )
        return [
            ExecutionResult(
                design=self.design.name,
                benchmark=benchmark_name,
                seed=seed,
                makespan=makespan,
                fidelity=breakdown.total,
                fidelity_breakdown=replace(breakdown),
                num_single_qubit=streams.num_single,
                num_local_two_qubit=streams.num_two_total,
                num_remote=0,
                num_measurements=streams.num_measure,
                qubit_idle_total=idle_total,
            )
            for seed in seeds
        ]
