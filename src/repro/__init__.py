"""repro — reproduction of "Hardware-Software Co-design for Distributed Quantum Computing" (DAC 2025).

The package implements the paper's full pipeline from scratch:

* a gate-level quantum-circuit IR with commutation-aware rewrites,
* the Table I benchmark generators (TLIM, QAOA-MaxCut, QFT),
* a pluggable partitioner registry (METIS-style multilevel baseline plus
  Kernighan-Lin, Fiduccia-Mattheyses, spectral, contiguous, and a
  ``precomputed`` passthrough; see :mod:`repro.api`),
* a DQC hardware model with data / communication / buffer qubits and a
  registry of interconnect topologies (``all_to_all``, ``line``, ``ring``,
  ``star``, ``grid-RxC``),
* a stochastic heralded-entanglement-generation simulator with synchronous or
  asynchronous attempts, buffering, and cutoff policies,
* a density-matrix based gate-teleportation fidelity model,
* a discrete-event executor comparing the six designs of the evaluation
  (``original``, ``sync_buf``, ``async_buf``, ``adapt_buf``, ``init_buf``,
  ``ideal``), and
* a declarative :class:`Study` API (plus the ``python -m repro`` CLI) that
  expands arbitrary parameter grids — benchmarks, designs, seeds, any
  ``SystemConfig`` field — into compile-once engine cells and returns flat,
  serialisable :class:`ResultSet` records.

This package holds the run-and-read API: :class:`DQCSimulator` for single
runs, :class:`Study` for grids, and the results and stores they return.
Every registry hook — listing, looking up and registering benchmarks,
designs, partitioners, topologies and execution backends, plus the compile
caches — lives in :mod:`repro.api`; the two facades share no name.

Quickstart
----------
>>> from repro import DQCSimulator
>>> simulator = DQCSimulator()
>>> result = simulator.simulate("QAOA-r4-32", design="adapt_buf", seed=1)
>>> round(result.depth, 1) > 0
True

>>> from repro import Study
>>> results = Study(benchmarks="TLIM-32", designs=["ideal"], num_runs=2).run()
>>> len(results)
2
"""

from repro.circuits import QuantumCircuit
from repro.core import (
    PAPER_32Q_SYSTEM,
    PAPER_64Q_SYSTEM,
    DQCSimulator,
    SystemConfig,
)
from repro.runtime import ExecutionResult
from repro.study import (
    Axis,
    ProgressEvent,
    ResultSet,
    RunRecord,
    RunStore,
    Study,
    aggregate_stream,
)

__version__ = "1.1.0"

__all__ = [
    "QuantumCircuit",
    "ExecutionResult",
    "DQCSimulator",
    "SystemConfig",
    "PAPER_32Q_SYSTEM",
    "PAPER_64Q_SYSTEM",
    "Axis",
    "RunRecord",
    "ResultSet",
    "RunStore",
    "ProgressEvent",
    "aggregate_stream",
    "Study",
    "__version__",
]
