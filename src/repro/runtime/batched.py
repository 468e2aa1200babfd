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
seed draw its variates once, and those of one attempt schedule read one
success tape.  The reference executor reads a private table per
generator; the variates, and so the results, are the same.

A batch builds one :class:`~repro.runtime.resources.EntanglementDirectory`,
whose per-node-pair setup (attempt schedule, link and buffer counts) every
run shares through :meth:`~repro.runtime.resources.EntanglementDirectory.for_seed`.
The replay loop keeps its state in local variables and makes one
:meth:`~repro.entanglement.service.EntanglementService.acquire` call per
remote gate.  Of each qubit it keeps only the time the qubit is next free:
idle decoherence is charged on the makespan, so no busy or idle time is
tracked.  It builds no per-gate object: each remote gate adds its wait
and its link fidelity to two running totals, in gate order, and its link
fidelity to the list the fidelity model multiplies out.  Runs only read
the compiled cell: each counts its own adaptive variant choices, so
threads may replay one cell at once.

The ideal (monolithic) design is deterministic per cell, so a seed batch
simulates it once and stamps per-seed results from the shared outcome.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence

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
    SegmentStreams,
)
from repro.runtime.metrics import ExecutionResult
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
        design = self.design
        # Built once per batch: each run derives its own services from it.
        directory = EntanglementDirectory(
            self.architecture,
            attempt_policy=design.attempt_policy,
            use_buffer=design.use_buffer,
            prefill=design.prefill_buffers,
            buffer_cutoff=design.buffer_cutoff,
            async_groups=design.async_groups,
            variates=variates,
        )
        lookup = self.lookup if design.adaptive_scheduling else None
        return [
            self._run_one(program.num_qubits, lookup, benchmark_name,
                          directory.for_seed(seed))
            for seed in seeds
        ]

    # ------------------------------------------------------------------
    # stochastic (distributed) replay
    # ------------------------------------------------------------------
    def _run_one(self, num_qubits: int,
                 lookup: Optional[ScheduleLookupTable], benchmark_name: str,
                 directory: EntanglementDirectory) -> ExecutionResult:
        streams = self.streams
        avail = [0.0] * num_qubits
        pair_list = streams.pair_list
        services = [None] * len(pair_list)
        remote_latency = streams.remote_latency
        link_fidelities: List[float] = []
        wait_total = 0.0
        fidelity_total = 0.0
        histogram = dict.fromkeys(SchedulingVariant.ALL, 0)
        if lookup is None:
            played = (streams.flat,)
        else:
            played = self._adaptive_streams(streams.segments, lookup, avail,
                                            directory, histogram)
        for stream in played:
            for op, a, b, duration, pair_id in stream.rows:
                if op == OP_REMOTE:
                    time_a = avail[a]
                    time_b = avail[b]
                    ready = time_a if time_a >= time_b else time_b
                    service = services[pair_id]
                    if service is None:
                        service = services[pair_id] = directory.service(
                            *pair_list[pair_id])
                    start, _created, fidelity = service.acquire(ready)
                    finish = start + remote_latency
                    avail[a] = finish
                    avail[b] = finish
                    wait = start - ready
                    if wait > 0.0:
                        wait_total += wait
                    fidelity_total += fidelity
                    link_fidelities.append(fidelity)
                elif op == OP_LOCAL_2Q:
                    time_a = avail[a]
                    time_b = avail[b]
                    finish = (time_a if time_a >= time_b else time_b) + duration
                    avail[a] = finish
                    avail[b] = finish
                else:
                    avail[a] += duration

        makespan = max(avail)
        directory.finalize(makespan)
        breakdown = self.fidelity_model.estimate(
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_local_two,
            remote_link_fidelities=link_fidelities,
            makespan=makespan,
            num_measurements=streams.num_measure,
        )
        return ExecutionResult(
            design=self.design.name,
            benchmark=benchmark_name,
            seed=directory.seed,
            makespan=makespan,
            fidelity=breakdown.total,
            fidelity_breakdown=breakdown,
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_local_two,
            num_remote=len(link_fidelities),
            num_measurements=streams.num_measure,
            remote_wait_total=wait_total,
            link_fidelity_total=fidelity_total,
            epr_statistics=directory.aggregate_statistics(),
            variant_histogram=histogram if lookup is not None else {},
        )

    @staticmethod
    def _adaptive_streams(segments: Sequence[SegmentStreams],
                          lookup: ScheduleLookupTable, avail: List[float],
                          directory: EntanglementDirectory,
                          histogram: Dict[str, int]) -> Iterator[GateStream]:
        """Yield each segment's chosen variant once the previous one played.

        The decision time is the earliest time any of the segment's qubits
        is free (``avail`` is the replay's live availability list), and the
        available EPR count is summed over the segment's node pairs.  The
        choices are counted in ``histogram``; the shared ``lookup`` is only
        read.
        """
        for segment in segments:
            if segment.qubits:
                decision_time = min(avail[q] for q in segment.qubits)
            else:
                decision_time = max(avail)
            if segment.node_pairs:
                available = sum(
                    directory.count_available(a, b, decision_time)
                    for a, b in segment.node_pairs
                )
                chosen = lookup.variant_for(segment.index, available)
                histogram[chosen] += 1
            else:
                chosen = SchedulingVariant.ORIGINAL
            yield segment.variants[chosen]

    # ------------------------------------------------------------------
    # deterministic (ideal) replay
    # ------------------------------------------------------------------
    def _run_ideal_batch(self, benchmark_name: str,
                         seeds: Sequence[int]) -> List[ExecutionResult]:
        streams = self.streams
        stream = streams.flat
        num_qubits = stream.num_qubits
        avail = [0.0] * num_qubits
        for op, a, b, duration, _pair in stream.rows:
            if op == OP_LOCAL_2Q:
                time_a = avail[a]
                time_b = avail[b]
                finish = (time_a if time_a >= time_b else time_b) + duration
                avail[a] = finish
                avail[b] = finish
            else:
                avail[a] += duration

        makespan = max(avail)
        breakdown = self.fidelity_model.estimate(
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_two_total,
            remote_link_fidelities=[],
            makespan=makespan,
            num_measurements=streams.num_measure,
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
            )
            for seed in seeds
        ]
