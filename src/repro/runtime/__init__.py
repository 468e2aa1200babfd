"""Execution runtime: resources, designs, executors.

Two execution cores share the same stochastic processes and produce
bit-identical results per seed: the trajectory-batched
:class:`~repro.runtime.batched.BatchedExecutor`, which replays the
compiler's :mod:`~repro.runtime.gatestream` rows per seed and is the only
production core, and the per-gate
:class:`~repro.runtime.executor.DesignExecutor`, the reference the tests
compare against and the only core that collects traces.  The reference is
reached only by constructing it, e.g. through
:meth:`~repro.engine.compiler.CompiledCell.executor`.
"""

from repro.runtime.batched import BatchedExecutor
from repro.runtime.designs import DESIGNS, DesignSpec, get_design, list_designs
from repro.runtime.executor import DesignExecutor, execute_design
from repro.runtime.gatestream import CompiledStreams, GateStream, lower_cell
from repro.runtime.metrics import ExecutionResult
from repro.runtime.resources import DataQubitTracker, EntanglementDirectory
from repro.runtime.trace import ExecutionTrace, GateTraceEntry

__all__ = [
    "DataQubitTracker",
    "EntanglementDirectory",
    "DesignSpec",
    "DESIGNS",
    "get_design",
    "list_designs",
    "DesignExecutor",
    "execute_design",
    "BatchedExecutor",
    "CompiledStreams",
    "GateStream",
    "lower_cell",
    "ExecutionResult",
    "ExecutionTrace",
    "GateTraceEntry",
]
