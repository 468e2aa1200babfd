"""Execute stage: pluggable backends replaying compiled cells under seeds.

Following the ``Distributor`` idiom of pytket-dqc, every backend implements
one abstract operation — :meth:`ExecutionBackend.execute` — that maps an
ordered sequence of :class:`ExecutionTask` (one ``(CompiledCell, seed)``
pair each) to the matching ordered list of
:class:`~repro.runtime.metrics.ExecutionResult`.  Because a compiled cell is
replayed with a fresh, seed-deterministic entanglement process, every
backend must produce *identical* results for identical task lists; the
backends differ only in wall-clock strategy:

* :class:`SerialBackend` — runs tasks in order on the calling thread,
* :class:`ProcessPoolBackend` — fans tasks out over a process pool,
  preserving input order,
* ``"fleet"`` (:class:`~repro.fleet.backend.FleetBackend`) — fans
  seed-chunks out to socket-connected worker processes, possibly on other
  machines (registered here by name; the package imports lazily).

The unit of dispatch is **not** the single task: both backends coalesce
consecutive tasks of the same cell into ``(cell, seed-chunk)`` batches
(:func:`chunk_tasks`) and replay each batch through
:meth:`~repro.engine.compiler.CompiledCell.execute_batch`, so per-cell
artifacts — gate streams, lookup tables, static counts — are shared across
a whole chunk of seeds instead of being re-entered (and, for the process
pool, re-pickled) once per run.  Process workers are persistent and inherit
the compiled cells of the first batch through the pool initializer; chunks
then travel as ``(cache_key, seeds)`` pairs, a few bytes each.

The designs and benchmarks of one run seed draw the same entanglement
variates (:mod:`repro.entanglement.generator`), so the batches of one
:meth:`SerialBackend.execute` call share one
:class:`~repro.entanglement.generator.VariateTable`, a local of that call:
``repro serve`` threads reuse one backend instance and must not share it.
Each process worker keeps one table for its lifetime.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.compiler import CompiledCell
from repro.entanglement.generator import VariateTable
from repro.exceptions import ConfigurationError
from repro.runtime.metrics import ExecutionResult

__all__ = [
    "ExecutionTask",
    "ExecutionBackend",
    "ResultSink",
    "SerialBackend",
    "ProcessPoolBackend",
    "chunk_tasks",
    "get_backend",
    "register_backend",
    "list_backends",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted when no backend is specified.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Load-balancing oversubscription: aim for this many chunks per worker so
#: unevenly expensive cells (e.g. adaptive vs ideal designs) level out.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True, eq=False)
class ExecutionTask:
    """One unit of execute-stage work: replay ``cell`` under ``seed``."""

    cell: CompiledCell
    seed: int


def chunk_tasks(tasks: Sequence[ExecutionTask],
                chunk_size: int) -> List[Tuple[CompiledCell, List[int]]]:
    """Coalesce consecutive same-cell tasks into ``(cell, seeds)`` chunks.

    Order is preserved: concatenating the chunks' seeds in output order
    reproduces the task order exactly, which is what lets backends replay
    chunks and still return results positionally.  Only *consecutive* runs
    of one cell are merged — interleaved cells stay separate chunks — and no
    chunk exceeds ``chunk_size`` seeds.
    """
    if chunk_size < 1:
        raise ConfigurationError("chunk size must be positive")
    chunks: List[Tuple[CompiledCell, List[int]]] = []
    current_cell: Optional[CompiledCell] = None
    current_seeds: List[int] = []
    for task in tasks:
        if task.cell is not current_cell or len(current_seeds) >= chunk_size:
            if current_seeds:
                chunks.append((current_cell, current_seeds))
            current_cell = task.cell
            current_seeds = []
        current_seeds.append(task.seed)
    if current_seeds:
        chunks.append((current_cell, current_seeds))
    return chunks


#: Streaming consumer of per-chunk results: called as ``sink(start, batch)``
#: where ``start`` is the index of the chunk's first task in the submitted
#: task list and ``batch`` the chunk's results in task order.  Chunks arrive
#: in *completion* order (parallel backends finish chunks out of order).  A
#: sink may expose a ``chunk_size`` attribute as a granularity hint, which
#: backends use to cap their internal chunking so streamed units align with
#: the consumer's (e.g. a run store's) durable chunk boundaries.
ResultSink = Callable[[int, List[ExecutionResult]], None]


def _sink_chunk_hint(sink: Optional[ResultSink]) -> Optional[int]:
    """The sink's preferred chunk granularity, if it declares one."""
    if sink is None:
        return None
    hint = getattr(sink, "chunk_size", None)
    return int(hint) if hint else None


class ExecutionBackend(ABC):
    """Strategy for running a batch of execution tasks.

    Subclasses must preserve task order and produce results identical to
    :class:`SerialBackend` for the same tasks (execution is deterministic
    per seed).  Backends are reusable across :meth:`execute` calls and
    usable as context managers; :meth:`close` releases any worker state.

    Besides returning the full ordered result list, backends *stream*: an
    optional ``sink`` receives every internal ``(cell, seed-chunk)`` batch
    as it completes, which is what lets a
    :class:`~repro.study.store.RunStore` persist progress incrementally and
    progress reporting observe a running study.  Streaming never changes
    the returned results — execution is deterministic per seed regardless
    of chunking.
    """

    name: str = "abstract"

    @abstractmethod
    def execute(self, tasks: Sequence[ExecutionTask],
                sink: Optional[ResultSink] = None) -> List[ExecutionResult]:
        """Run every task and return results in task order.

        When ``sink`` is given, additionally deliver each completed chunk
        to it (in completion order) before returning.
        """

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run every task in order on the calling thread (the reference).

    Consecutive same-cell tasks are replayed as one seed batch so the
    per-cell replay state (gate-stream columns, lookup resets) is shared,
    and every batch of one call reads one variate table.
    """

    name = "serial"

    def execute(self, tasks: Sequence[ExecutionTask],
                sink: Optional[ResultSink] = None) -> List[ExecutionResult]:
        # Without a sink the whole run of one cell is a single batch; a
        # sink's granularity hint bounds the batches so durable chunks
        # become visible (and persistable) as soon as they complete.
        chunk_size = len(tasks) or 1
        hint = _sink_chunk_hint(sink)
        if hint is not None:
            chunk_size = min(chunk_size, hint)
        variates = VariateTable()
        results: List[ExecutionResult] = []
        for cell, seeds in chunk_tasks(tasks, chunk_size=chunk_size):
            batch = cell.execute_batch(seeds, variates=variates)
            if sink is not None:
                sink(len(results), batch)
            results.extend(batch)
        return results


# ----------------------------------------------------------------------
# process-pool worker plumbing
# ----------------------------------------------------------------------

#: Worker-side compiled-cell registry, keyed by cell fingerprint; seeded by
#: the pool initializer so chunks travel as ``(cache_key, seeds)`` pairs.
_WORKER_CELLS: Dict[str, CompiledCell] = {}
#: The worker's variate table, shared by every chunk it replays.
_WORKER_VARIATES: Optional[VariateTable] = None


def _init_worker(cells: Dict[str, CompiledCell]) -> None:
    """Pool initializer: inherit the parent's cells, start the variate table."""
    global _WORKER_VARIATES
    _WORKER_CELLS.update(cells)
    _WORKER_VARIATES = VariateTable()


def _run_seed_chunk(
    payload: Tuple[str, Tuple[int, ...]],
) -> List[ExecutionResult]:
    """Replay one ``(cell, seed-chunk)`` batch inside a worker process."""
    key, seeds = payload
    cell = _WORKER_CELLS.get(key)
    if cell is None:  # pragma: no cover - _ensure_pool keeps workers covered
        raise ConfigurationError(
            f"worker has no compiled cell for key {key[:12]}…; "
            f"the pool initializer did not cover this batch"
        )
    return cell.execute_batch(list(seeds), variates=_WORKER_VARIATES)


class ProcessPoolBackend(ExecutionBackend):
    """Fan ``(cell, seed-chunk)`` batches out over a persistent process pool.

    Parameters
    ----------
    max_workers:
        Worker process count.  The default uses every usable CPU (scheduler
        affinity when available) and is never 1 on a multi-core machine.
    chunksize:
        Maximum seeds per dispatched batch; by default sized so every
        worker receives about :data:`_CHUNKS_PER_WORKER` batches
        (``ceil(num_tasks / (workers * 4))``), balancing load without
        degenerating into per-run dispatch.

    The pool is created lazily on the first :meth:`execute` call and reused
    until :meth:`close`, so sweeps pay the worker start-up cost once.
    Workers inherit every compiled cell through the pool initializer and
    chunks then travel as ``(cache_key, seeds)`` pairs; when a later call
    brings cells the current pool has never seen, the pool is rebuilt once
    with the accumulated cell set (workers restart, but cells are pickled
    once per worker instead of once per chunk forever).

    A one-worker pool is pure overhead — serial execution plus pickling —
    which is exactly the ``BENCH_engine.json`` regression (0.89x vs serial).
    When only one worker is available the backend therefore hands the tasks
    to :class:`SerialBackend`: results are identical either way, and the
    backend never loses to it on a single-CPU machine.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None,
                 chunksize: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("process backend needs at least one worker")
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError("chunksize must be positive")
        self.max_workers = max_workers
        self.chunksize = chunksize
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_cells: Dict[str, CompiledCell] = {}

    # ------------------------------------------------------------------
    def _workers(self) -> int:
        if self.max_workers is not None:
            return self.max_workers
        count = os.cpu_count() or 1
        try:
            usable = len(os.sched_getaffinity(0)) or count
        except AttributeError:  # pragma: no cover - non-Linux platforms
            usable = count
        # Every usable CPU gets a worker; a machine (or cpuset/affinity
        # mask) with a single usable CPU gets 1, which the execute path
        # short-circuits to the serial backend — multiple workers contending
        # for one CPU is strictly worse than the serial backend (the
        # BENCH_engine.json 0.89x regression).
        return usable if usable > 1 else 1

    def _ensure_pool(self, cells: Dict[str, CompiledCell]) -> ProcessPoolExecutor:
        unknown = [key for key in cells if key not in self._pool_cells]
        if self._pool is not None and unknown:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool_cells.update(cells)
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers(),
                initializer=_init_worker,
                initargs=(self._pool_cells,),
            )
        return self._pool

    def _chunk_size(self, num_tasks: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, math.ceil(num_tasks / (self._workers() * _CHUNKS_PER_WORKER)))

    def execute(self, tasks: Sequence[ExecutionTask],
                sink: Optional[ResultSink] = None) -> List[ExecutionResult]:
        tasks = list(tasks)
        if not tasks:
            return []
        if self._workers() == 1:
            return SerialBackend().execute(tasks, sink=sink)
        chunk_size = self._chunk_size(len(tasks))
        hint = _sink_chunk_hint(sink)
        if hint is not None:
            chunk_size = min(chunk_size, hint)
        chunks = chunk_tasks(tasks, chunk_size)
        cells = {chunk[0].cache_key: chunk[0] for chunk in chunks}
        pool = self._ensure_pool(cells)
        start_of: Dict[object, int] = {}
        offset = 0
        for cell, seeds in chunks:
            future = pool.submit(_run_seed_chunk, (cell.cache_key, tuple(seeds)))
            start_of[future] = offset
            offset += len(seeds)
        # Collect in completion order so the sink observes (and can persist)
        # chunks the moment workers finish them, then reassemble positionally.
        collected: Dict[int, List[ExecutionResult]] = {}
        for future in as_completed(start_of):
            batch = future.result()
            if sink is not None:
                sink(start_of[future], batch)
            collected[start_of[future]] = batch
        results: List[ExecutionResult] = []
        for start in sorted(collected):
            results.extend(collected[start])
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_cells = {}


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------
BackendLike = Union[None, str, ExecutionBackend]


def _fleet_backend() -> ExecutionBackend:
    # Imported lazily: repro.fleet.backend imports this module, and the
    # fleet is only paid for (sockets, threads) when actually selected.
    from repro.fleet.backend import FleetBackend

    return FleetBackend()


_BACKENDS: Dict[str, Callable[[], ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "processpool": ProcessPoolBackend,
    "fleet": _fleet_backend,
}


def register_backend(name: str,
                     factory: Callable[[], ExecutionBackend]) -> None:
    """Register a custom backend factory under ``name``.

    Once registered, the name works everywhere a built-in does —
    ``Study(backend=...)``, ``--backend`` on the CLI, and the
    ``REPRO_BACKEND`` environment variable.

    Example
    -------
    ::

        from repro import api

        class SlurmBackend(api.ExecutionBackend):
            name = "slurm"

            def execute(self, tasks, sink=None):
                ...  # dispatch chunks to the cluster, stream to sink

        api.register_backend("slurm", SlurmBackend)
        Study(benchmarks="QFT-32", backend="slurm").run()
    """
    _BACKENDS[name.lower()] = factory


def list_backends() -> List[str]:
    """Registered backend names.

    Example
    -------
    >>> from repro.engine.backends import list_backends
    >>> "serial" in list_backends() and "process" in list_backends()
    True
    """
    return sorted(_BACKENDS)


def get_backend(backend: BackendLike = None) -> ExecutionBackend:
    """Resolve a backend argument: instance, registered name, or ``None``.

    ``None`` consults the ``REPRO_BACKEND`` environment variable (so whole
    studies, the CLI, and the figure harnesses share one knob) and falls
    back to a fresh :class:`SerialBackend`.

    Example
    -------
    >>> from repro.engine.backends import get_backend
    >>> get_backend("process").name
    'process'
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or None
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        factory = _BACKENDS.get(backend.lower())
        if factory is None:
            raise ConfigurationError(
                f"unknown execution backend {backend!r}; "
                f"available: {', '.join(list_backends())}"
            )
        return factory()
    raise ConfigurationError(
        f"cannot interpret {type(backend).__name__} as an execution backend"
    )
