"""High-level co-design simulator API for single runs.

:class:`DQCSimulator` takes a circuit (or a benchmark name), partitions it
over the nodes of a :class:`~repro.core.config.SystemConfig`, and simulates
one execution under any of the paper's designs, returning depth / fidelity
metrics (and, with ``collect_trace=True``, a per-gate trace).  Grids of
benchmarks × designs × seeds go through :class:`~repro.study.study.Study`.

The simulator is a thin wrapper over
:class:`~repro.engine.compiler.CellCompiler`: every ``simulate`` call first
compiles (or fetches from the artifact cache) the deterministic
:class:`~repro.engine.compiler.CompiledCell` of its (benchmark, design)
pair, then replays it under the requested seed through the batched core
(:meth:`~repro.engine.compiler.CompiledCell.execute_batch`), or through
the reference :class:`~repro.runtime.executor.DesignExecutor` when a trace
is requested.  The schedule lookup table of an adaptive design is
therefore built once per cell no matter how many seeds are simulated.

Example
-------
>>> from repro import DQCSimulator
>>> simulator = DQCSimulator()                      # paper's 32-qubit system
>>> result = simulator.simulate("QAOA-r4-32", design="adapt_buf", seed=3)
>>> result.depth > 0
True
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.core.config import SystemConfig
from repro.engine.compiler import CellCompiler
from repro.hardware.architecture import DQCArchitecture
from repro.partitioning.assigner import DistributedProgram
from repro.runtime.designs import list_designs
from repro.runtime.executor import DesignExecutor
from repro.runtime.metrics import ExecutionResult
from repro.scheduling.policies import AdaptivePolicy

__all__ = ["DQCSimulator"]

CircuitLike = Union[str, QuantumCircuit, DistributedProgram]


class DQCSimulator:
    """Partition + schedule + execute + estimate, behind one interface.

    Parameters
    ----------
    system:
        Hardware configuration; defaults to the paper's 2-node, 32-data-qubit
        system with 10 communication and 10 buffer qubits per node.
    partition_method:
        Optional override of ``system.partition_method``: any name from the
        partitioner registry (``"multilevel"`` is the METIS-baseline
        substitute) or a :class:`~repro.partitioning.registry.Partitioner`
        instance.
    partition_seed:
        Seed of the partitioner (partitioning is deterministic per seed).

    Attributes
    ----------
    last_executor:
        The :class:`DesignExecutor` of the most recent ``simulate`` call
        with ``collect_trace=True`` (``None`` until the first such call);
        its ``last_trace`` holds that run's per-gate trace.  Untraced calls
        replay through the batched core and leave it unchanged.
    """

    def __init__(self, system: Optional[SystemConfig] = None,
                 partition_method=None,
                 partition_seed: int = 0) -> None:
        self._compiler = CellCompiler(
            system=system,
            partition_method=partition_method,
            partition_seed=partition_seed,
        )
        self.system = self._compiler.system
        self.partition_method = self._compiler.partition_method
        self.partition_seed = self._compiler.partition_seed
        self.last_executor: Optional[DesignExecutor] = None

    # ------------------------------------------------------------------
    @property
    def compiler(self) -> CellCompiler:
        """The compile stage backing this simulator."""
        return self._compiler

    @property
    def architecture(self) -> DQCArchitecture:
        """The materialised hardware architecture (built lazily)."""
        return self._compiler.architecture

    # ------------------------------------------------------------------
    def prepare(self, circuit: CircuitLike) -> DistributedProgram:
        """Resolve a benchmark name / circuit into a distributed program.

        Benchmark names are cached: the same partition is reused across
        designs and repetitions, matching the paper's methodology where the
        METIS partition is computed once per benchmark.
        """
        return self._compiler.resolve_program(circuit)

    # ------------------------------------------------------------------
    def simulate(
        self,
        circuit: CircuitLike,
        design: str = "adapt_buf",
        seed: int = 0,
        segment_length: Optional[int] = None,
        adaptive_policy: Optional[AdaptivePolicy] = None,
        collect_trace: bool = False,
    ) -> ExecutionResult:
        """Simulate one execution of ``circuit`` under ``design``.

        Parameters
        ----------
        circuit:
            Benchmark name, circuit, or pre-partitioned program.
        design:
            One of ``original``, ``sync_buf``, ``async_buf``, ``adapt_buf``,
            ``init_buf``, ``ideal``.
        seed:
            Seed of the stochastic entanglement generation.
        segment_length:
            Optional override of the adaptive segment length ``m``.
        adaptive_policy:
            Optional override of the adaptive thresholds.
        collect_trace:
            Record a per-gate execution trace through the reference
            :class:`DesignExecutor`, kept as :attr:`last_executor`.
        """
        cell = self._compiler.compile(
            circuit, design,
            segment_length=segment_length,
            adaptive_policy=adaptive_policy,
        )
        if not collect_trace:
            return cell.execute_batch([seed])[0]
        executor = cell.executor(seed=seed, collect_trace=True)
        result = executor.run(cell.program, benchmark_name=cell.benchmark)
        self.last_executor = executor
        return result

    def simulate_all_designs(
        self,
        circuit: CircuitLike,
        designs: Optional[Sequence[str]] = None,
        seed: int = 0,
        **kwargs,
    ) -> Dict[str, ExecutionResult]:
        """Simulate one run of every design on the same circuit and seed."""
        designs = list(designs) if designs is not None else list_designs()
        return {
            name: self.simulate(circuit, design=name, seed=seed, **kwargs)
            for name in designs
        }

    # ------------------------------------------------------------------
    def ideal_reference(self, circuit: CircuitLike) -> ExecutionResult:
        """Depth / fidelity of the monolithic (ideal) execution."""
        return self.simulate(circuit, design="ideal", seed=0)

    def describe(self) -> Dict[str, object]:
        """Configuration summary (used by reports and examples)."""
        return {
            "system": {
                "nodes": self.system.num_nodes,
                "data_per_node": self.system.data_qubits_per_node,
                "comm_per_node": self.system.comm_qubits_per_node,
                "buffer_per_node": self.system.buffer_qubits_per_node,
                "psucc": self.system.epr_success_probability,
            },
            "partition_method": self.partition_method,
            "topology": self.system.topology,
            "designs": list_designs(),
        }
