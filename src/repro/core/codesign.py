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

from numbers import Integral
from typing import Optional, Union

from repro.circuits.circuit import QuantumCircuit
from repro.core.config import SystemConfig
from repro.engine.compiler import CellCompiler
from repro.exceptions import ConfigurationError
from repro.partitioning.assigner import DistributedProgram
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
            Non-negative seed of the stochastic entanglement generation.
        segment_length:
            Optional override of the adaptive segment length ``m``.
        adaptive_policy:
            Optional override of the adaptive thresholds.
        collect_trace:
            Record a per-gate execution trace through the reference
            :class:`DesignExecutor`, kept as :attr:`last_executor`.
        """
        if (isinstance(seed, bool) or not isinstance(seed, Integral)
                or seed < 0):
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {seed!r}")
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
