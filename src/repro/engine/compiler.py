"""Compile stage: turn (benchmark, design) cells into immutable artifacts.

The experiment grids of the paper (Figs. 5-8) repeat every (benchmark,
design) cell over many stochastic seeds, but only the entanglement process is
stochastic — building the circuit, partitioning it over nodes, resolving the
design, and pre-compiling the ASAP/ALAP schedule lookup table are all
deterministic.  :class:`CellCompiler` performs that deterministic work
exactly once per cell and packages it as a :class:`CompiledCell`, which the
execute stage (see :mod:`repro.engine.backends`) can then replay under any
seed, serially or across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.benchmarks.registry import build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.core.config import SystemConfig
from repro.engine.cache import ArtifactCache, default_cache, fingerprint
from repro.entanglement.generator import VariateTable
from repro.exceptions import ConfigurationError
from repro.hardware.architecture import DQCArchitecture
from repro.hardware.topology import validate_remote_pairs
from repro.partitioning.assigner import DistributedProgram, distribute_circuit
from repro.partitioning.registry import get_partitioner
from repro.runtime.batched import BatchedExecutor
from repro.runtime.designs import DesignSpec, get_design
from repro.runtime.executor import DesignExecutor
from repro.runtime.gatestream import CompiledStreams, lower_cell
from repro.runtime.metrics import ExecutionResult
from repro.scheduling.lookup import ScheduleLookupTable
from repro.scheduling.policies import AdaptivePolicy

__all__ = ["CompiledCell", "CellCompiler"]

CircuitLike = Union[str, QuantumCircuit, DistributedProgram]


@dataclass(frozen=True, eq=False)
class CompiledCell:
    """Immutable compile artifact of one (benchmark, design) cell.

    Everything deterministic about the cell lives here: the partitioned
    program, the materialised architecture, the resolved design spec, the
    segment-length override, the lowered gate streams and — for adaptive
    designs — the pre-built
    :class:`~repro.scheduling.lookup.ScheduleLookupTable`.  Executing the
    cell under a seed touches none of this state except the lookup table's
    decision log, which the executor resets at the start of every run.
    """

    benchmark: str
    design: DesignSpec
    program: DistributedProgram
    architecture: DQCArchitecture
    segment_length: Optional[int]
    adaptive_policy: AdaptivePolicy
    lookup: Optional[ScheduleLookupTable]
    cache_key: str
    streams: CompiledStreams

    # ------------------------------------------------------------------
    def executor(self, seed: int = 0,
                 collect_trace: bool = False) -> DesignExecutor:
        """Build the reference :class:`DesignExecutor` for this cell."""
        return DesignExecutor(
            self.architecture,
            self.design,
            seed=seed,
            segment_length=self.segment_length,
            adaptive_policy=self.adaptive_policy,
            lookup=self.lookup,
            collect_trace=collect_trace,
        )

    def execute_batch(self, seeds: Sequence[int], *,
                      variates: Optional[VariateTable] = None,
                      ) -> List[ExecutionResult]:
        """Replay the cell under a batch of seeds, in seed order.

        Batches that share ``variates`` draw each run seed's entanglement
        variates once between them; results never depend on it.
        """
        executor = BatchedExecutor(self.architecture, self.design,
                                   streams=self.streams, lookup=self.lookup)
        return executor.run_batch(self.program, seeds,
                                  benchmark_name=self.benchmark,
                                  variates=variates)


class CellCompiler:
    """Deterministic compile stage with a fingerprint-keyed artifact cache.

    Parameters
    ----------
    system:
        Hardware configuration (defaults to the paper's 32-qubit system).
        Carries the partitioning strategy (``system.partition_method``) and
        the interconnect topology (``system.topology``).
    partition_method:
        Optional override of ``system.partition_method``: a registered name,
        alias, or :class:`~repro.partitioning.registry.Partitioner`
        instance.  ``None`` (default) uses the system's strategy.
    partition_seed:
        Partitioner seed; partitioning is deterministic per seed.
    cache:
        Artifact cache, shareable across compilers.  Programs are keyed by
        (benchmark, partitioning) only — independent of communication /
        buffer qubit counts and of the interconnect topology — so sweeps
        over those axes reuse the partition and recompile just the schedule
        lookup tables.  When omitted, :func:`~repro.engine.cache.default_cache`
        builds one — persistent on disk if ``REPRO_CACHE_DIR`` (or
        ``cache_dir``) is set, in-memory otherwise.
    cache_dir:
        Optional persistent-cache directory for the default cache (ignored
        when an explicit ``cache`` is passed).
    """

    def __init__(self, system: Optional[SystemConfig] = None,
                 partition_method=None,
                 partition_seed: int = 0,
                 cache: Optional[ArtifactCache] = None,
                 cache_dir=None) -> None:
        self.system = system or SystemConfig()
        method = (partition_method if partition_method is not None
                  else self.system.partition_method)
        self.partitioner = get_partitioner(method)
        # Canonical name: aliases ("kl") fingerprint like their targets.
        self.partition_method = self.partitioner.name
        # Cache keys use the token, not the bare name, so stateful
        # strategies (e.g. PrecomputedPartitioner) never collide in a
        # shared artifact cache.
        self._partition_token = self.partitioner.cache_token()
        self.partition_seed = partition_seed
        self.cache = cache if cache is not None else default_cache(cache_dir)
        self._architecture: Optional[DQCArchitecture] = None

    # ------------------------------------------------------------------
    @property
    def architecture(self) -> DQCArchitecture:
        """The materialised hardware architecture (built lazily, once)."""
        if self._architecture is None:
            self._architecture = self.system.build_architecture()
        return self._architecture

    # ------------------------------------------------------------------
    def program_key(self, benchmark: str) -> str:
        """Cache key of a named benchmark's partitioned program."""
        return fingerprint(
            "program", benchmark.lower(), self.system.num_nodes,
            self._partition_token, self.partition_seed,
        )

    def circuit_key(self, circuit: QuantumCircuit) -> str:
        """Content-based cache key of an ad-hoc circuit's program.

        Keying by gate content (not object identity) means a circuit that is
        mutated between calls is correctly recompiled, while unchanged — or
        structurally equal — circuits share one partitioned program.
        """
        return fingerprint(
            "circuit", circuit.name, circuit.num_qubits, tuple(circuit.gates),
            self.system.num_nodes, self._partition_token, self.partition_seed,
        )

    def _program_token(self, circuit: CircuitLike,
                       program: DistributedProgram) -> str:
        """The program-identifying part of a cell's cache key."""
        if isinstance(circuit, str):
            return self.program_key(circuit)
        if isinstance(circuit, QuantumCircuit):
            return self.circuit_key(circuit)
        return fingerprint(
            "inline-program", program.name, program.num_qubits,
            tuple(program.circuit.gates),
            tuple(program.node_of(q) for q in range(program.num_qubits)),
        )

    def resolve_program(self, circuit: CircuitLike) -> DistributedProgram:
        """Resolve a benchmark name / circuit into a distributed program.

        Named benchmarks are cached by configuration fingerprint; circuit
        objects by gate content.  Pre-partitioned programs pass through.
        """
        if isinstance(circuit, DistributedProgram):
            return circuit
        if isinstance(circuit, str):
            key = self.program_key(circuit)
            program = self.cache.get("program", key)
            if program is None:
                program = self._distribute(build_benchmark(circuit))
                self.cache.put("program", key, program)
            else:
                self._check_capacity(program.num_qubits)
            return program
        if isinstance(circuit, QuantumCircuit):
            key = self.circuit_key(circuit)
            program = self.cache.get("program", key)
            if program is None:
                program = self._distribute(circuit)
                self.cache.put("program", key, program)
            else:
                self._check_capacity(program.num_qubits)
            return program
        raise ConfigurationError(
            f"cannot interpret {type(circuit).__name__} as a circuit"
        )

    def _distribute(self, circuit: QuantumCircuit) -> DistributedProgram:
        self._check_capacity(circuit.num_qubits)
        return distribute_circuit(
            circuit,
            num_nodes=self.system.num_nodes,
            method=self.partitioner,
            seed=self.partition_seed,
        )

    def _check_capacity(self, num_qubits: int) -> None:
        if num_qubits > self.system.total_data_qubits:
            raise ConfigurationError(
                f"circuit needs {num_qubits} data qubits but the system "
                f"provides {self.system.total_data_qubits}"
            )

    # ------------------------------------------------------------------
    def compile(
        self,
        circuit: CircuitLike,
        design: Union[str, DesignSpec],
        segment_length: Optional[int] = None,
        adaptive_policy: Optional[AdaptivePolicy] = None,
    ) -> CompiledCell:
        """Compile one cell, reusing cached artifacts where possible."""
        spec = design if isinstance(design, DesignSpec) else get_design(design)
        policy = adaptive_policy or AdaptivePolicy()
        program = self.resolve_program(circuit)
        key = self._cell_key(circuit, program, spec, segment_length, policy)
        cell = self.cache.get("cell", key)
        if cell is not None:
            return cell

        if not spec.ideal:
            # Fail at compile time, with the topology named, rather than deep
            # inside the executor.  Ideal (monolithic) cells run every gate
            # locally and need no interconnect.  A cell-cache hit above was
            # validated when first compiled (the key covers system+program).
            validate_remote_pairs(
                self.architecture, program.remote_pairs(),
                context=(f"program {program.name!r} under topology "
                         f"{self.system.topology!r}"),
            )

        lookup: Optional[ScheduleLookupTable] = None
        if spec.adaptive_scheduling:
            # Reuse the executor's resolution logic (segment length from the
            # architecture's communication pairs) so the engine path stays
            # bit-identical to direct DesignExecutor use.
            builder = self._lookup_builder(spec, segment_length, policy)
            lookup = builder.build_lookup(program)

        cell = CompiledCell(
            benchmark=program.name or str(circuit),
            design=spec,
            program=program,
            architecture=self.architecture,
            segment_length=segment_length,
            adaptive_policy=policy,
            lookup=lookup,
            cache_key=key,
            # Lower the program (and, for adaptive designs, every segment
            # variant) into flat gate streams once per cell; the batched
            # executor replays these rows for every seed.
            streams=lower_cell(program, self.architecture, spec, lookup=lookup),
        )
        return self.cache.put("cell", key, cell)

    def _lookup_builder(self, spec: DesignSpec,
                        segment_length: Optional[int],
                        policy: AdaptivePolicy) -> DesignExecutor:
        return DesignExecutor(
            self.architecture, spec,
            segment_length=segment_length, adaptive_policy=policy,
        )

    def _cell_key(self, circuit: CircuitLike, program: DistributedProgram,
                  spec: DesignSpec, segment_length: Optional[int],
                  policy: AdaptivePolicy) -> str:
        return fingerprint(
            "cell", self.system, self._partition_token, self.partition_seed,
            self._program_token(circuit, program), spec, segment_length, policy,
        )
