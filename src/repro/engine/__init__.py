"""Compile-once / execute-many engine stages.

The engine splits the simulation pipeline into two explicit stages:

* **compile** (:mod:`repro.engine.compiler`) — deterministic per
  (benchmark, design) cell: build the circuit, partition it, resolve the
  design, pre-build the schedule lookup table; cached by configuration
  fingerprint (:mod:`repro.engine.cache`).
* **execute** (:mod:`repro.engine.backends`) — stochastic per seed: replay
  a compiled cell through a pluggable :class:`ExecutionBackend`, serially
  or across a process pool.  Backends dispatch ``(cell, seed-chunk)``
  batches to :meth:`CompiledCell.execute_batch`, which replays them through
  the trajectory-batched execution core
  (:class:`~repro.runtime.batched.BatchedExecutor`).  The reference
  :class:`~repro.runtime.executor.DesignExecutor` is reached only through
  :meth:`CompiledCell.executor`.

The compile cache can persist across processes: point ``REPRO_CACHE_DIR``
(or pass ``cache_dir`` / a :class:`PersistentArtifactCache`) at a directory
and compiled artifacts are pickled there keyed by their configuration
fingerprints, so a fresh process starts sweeps with compilation already
paid.

:class:`~repro.study.study.Study` drives both stages for full
benchmarks × designs × seeds grids.
"""

from repro.engine.backends import (
    ExecutionBackend,
    ExecutionTask,
    ProcessPoolBackend,
    SerialBackend,
    chunk_tasks,
    get_backend,
    list_backends,
    register_backend,
)
from repro.engine.cache import (
    CACHE_ENV_VAR,
    ArtifactCache,
    PersistentArtifactCache,
    default_cache,
    fingerprint,
    resolve_cache_dir,
)
from repro.engine.compiler import CellCompiler, CompiledCell

__all__ = [
    "ArtifactCache",
    "PersistentArtifactCache",
    "default_cache",
    "resolve_cache_dir",
    "CACHE_ENV_VAR",
    "fingerprint",
    "CellCompiler",
    "CompiledCell",
    "ExecutionTask",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "chunk_tasks",
    "get_backend",
    "register_backend",
    "list_backends",
]
