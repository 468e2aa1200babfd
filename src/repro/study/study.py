"""Declarative experiment studies on top of the compile-once engine.

A :class:`Study` is the one entry point for *any* parameter sweep of the
evaluation: it crosses arbitrary axes — benchmarks, designs, seeds,
scheduling knobs, and any :class:`~repro.core.config.SystemConfig` field —
into a lazy, deduplicated :class:`~repro.study.plan.ExecutionPlan` of engine
cells, compiles each unique cell exactly once against one shared
:class:`~repro.engine.cache.ArtifactCache`, replays the whole seed × cell
grid through one pluggable execution backend in a single flat batch, and
returns a flat :class:`~repro.study.results.ResultSet`.

The paper's figures are each one study::

    # Fig. 5 / 6: designs × benchmarks on the 32-qubit system
    Study(benchmarks=["TLIM-32", "QAOA-r4-32", "QAOA-r8-32", "QFT-32"],
          num_runs=50, system=PAPER_32Q_SYSTEM)

    # Fig. 7: communication / buffer qubits swept together
    Study(benchmarks="QAOA-r8-32",
          axes=[Axis(("comm_qubits_per_node", "buffer_qubits_per_node"),
                     [(10, 10), (15, 15), (20, 20)])])

    # A new 2-axis grid: link quality x design
    Study(benchmarks="QAOA-r4-32",
          axes={"epr_success_probability": [0.2, 0.4, 0.8]})
"""

from __future__ import annotations

import time
from dataclasses import fields as dataclass_fields, replace
from numbers import Integral
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.core.config import SystemConfig
from repro.engine.backends import BackendLike, ExecutionBackend, ExecutionTask, get_backend
from repro.engine.cache import ArtifactCache, default_cache, fingerprint
from repro.engine.compiler import CellCompiler, CompiledCell
from repro.exceptions import (
    BenchmarkError,
    ConfigurationError,
    PartitionError,
    SpecValidationError,
    TopologyError,
)
from repro.hardware.parameters import GateFidelities, GateTimes
from repro.hardware.topology import get_topology
from repro.partitioning.registry import get_partitioner
from repro.runtime.designs import DesignSpec, list_designs
from repro.runtime.metrics import ExecutionResult
from repro.scheduling.policies import AdaptivePolicy
from repro.study.grid import Axis, GridSpec
from repro.study.plan import ExecutionPlan, PlanCell, jsonify, param_token
from repro.study.results import ResultSet, RunRecord
from repro.study.store import (
    DEFAULT_CHUNK_SIZE,
    ProgressEvent,
    RunStore,
    StoreChunk,
    chunk_layout,
)

__all__ = ["Study", "EXECUTOR_AXES", "RESERVED_AXES"]

#: Callback type for :meth:`Study.run` progress reporting.
ProgressCallback = Callable[[ProgressEvent], None]

#: Axis names that address the execution pipeline rather than the system.
EXECUTOR_AXES = ("segment_length", "adaptive_policy")

#: All reserved axis names (everything else must be a SystemConfig field).
RESERVED_AXES = ("benchmark", "design", "seed", *EXECUTOR_AXES)

_SYSTEM_FIELDS = tuple(
    f.name for f in dataclass_fields(SystemConfig)
    if f.name not in ("gate_times", "fidelities")
)

#: Scalar string-valued SystemConfig fields (registry names); every other
#: sweepable system field takes numbers.
_SYSTEM_STRING_FIELDS = tuple(
    f.name for f in dataclass_fields(SystemConfig)
    if f.name in _SYSTEM_FIELDS and f.type in ("str", str)
)

_SYSTEM_NUMERIC_FIELDS = tuple(
    name for name in _SYSTEM_FIELDS if name not in _SYSTEM_STRING_FIELDS
)

AxesLike = Union[Sequence[Axis], Mapping[str, Sequence[Any]]]


def _normalise_axes(axes: Optional[AxesLike]) -> List[Axis]:
    if axes is None:
        return []
    if isinstance(axes, Mapping):
        return [Axis(field, values) for field, values in axes.items()]
    return [axis if isinstance(axis, Axis) else Axis(*axis) for axis in axes]


class Study:
    """One declarative experiment: a grid of axes over one base configuration.

    Parameters
    ----------
    benchmarks:
        Benchmark name or list of names (the ``benchmark`` axis).  May be
        omitted if ``axes`` contains an explicit ``benchmark`` axis.
    designs:
        Design names and/or explicit :class:`DesignSpec` objects (the
        ``design`` axis).  ``None`` means *all designs registered at run
        time*.  May also be given as an explicit ``design`` axis.
    axes:
        Additional swept dimensions: a sequence of :class:`Axis` or a
        mapping ``{field: values}``.  Reserved fields — ``seed``,
        ``segment_length``, ``adaptive_policy`` — address the execution
        pipeline; every other field must be a scalar
        :class:`SystemConfig` field (e.g. ``comm_qubits_per_node``,
        ``epr_success_probability``) and produces per-point system variants
        of ``system`` via :func:`dataclasses.replace`.  Custom axes are the
        outermost loops, benchmarks and designs the innermost (seeds vary
        fastest of all).
    num_runs / base_seed:
        Default repetition seeds ``base_seed .. base_seed + num_runs - 1``
        per cell; an explicit ``seed`` axis overrides both.  Seeds are
        non-negative integers.
    system:
        Base hardware configuration (defaults to the paper's 32-qubit
        system).  Carries the default partitioning strategy and interconnect
        topology; a ``partition_method`` or ``topology`` axis produces
        per-point variants.
    partition_method:
        Optional override of ``system.partition_method`` (applied to the
        base system, so axes still take precedence per point).
    partition_seed:
        Partitioner seed shared by every cell, any integer.
    backend:
        Execute-stage strategy (instance, registered name, or ``None``,
        which honours the ``REPRO_BACKEND`` environment variable and falls
        back to serial).  Backends dispatch the grid as (cell, seed-chunk)
        batches through
        :meth:`~repro.engine.compiler.CompiledCell.execute_batch`;
        :meth:`run` calls ``execute(tasks, sink=...)``, so a custom backend
        must accept the ``sink`` and feed it every finished batch.
        Backends the study creates from a name / ``None`` are closed by
        :meth:`close`; caller-provided instances stay open.
    cache:
        Shared compile-artifact cache (one is created if omitted), used by
        every system variant of the study — a sweep therefore partitions
        each benchmark once no matter how many system points it visits.
    cache_dir:
        Optional persistent-cache directory; when no ``cache`` instance is
        passed, the study builds its cache with
        :func:`~repro.engine.cache.default_cache`, so this directory (or,
        failing that, ``REPRO_CACHE_DIR``) upgrades the cache to a
        :class:`~repro.engine.cache.PersistentArtifactCache` that carries
        compiled artifacts across processes.
    name:
        Optional label stored in the result metadata.
    """

    def __init__(
        self,
        benchmarks: Union[None, str, Sequence[str]] = None,
        designs: Union[None, str, DesignSpec,
                       Sequence[Union[str, DesignSpec]]] = None,
        *,
        axes: Optional[AxesLike] = None,
        num_runs: int = 1,
        base_seed: int = 1,
        system: Optional[SystemConfig] = None,
        partition_method: Optional[str] = None,
        partition_seed: int = 0,
        backend: BackendLike = None,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Union[None, str, Path] = None,
        name: Optional[str] = None,
    ) -> None:
        for key, value, minimum, kind in (
                ("num_runs", num_runs, 1, "a positive integer"),
                ("base_seed", base_seed, 0, "a non-negative integer"),
                ("partition_seed", partition_seed, None, "an integer")):
            if (isinstance(value, bool) or not isinstance(value, Integral)
                    or (minimum is not None and value < minimum)):
                raise ConfigurationError(f"{key} must be {kind}, got {value!r}")
        self.name = name
        self.num_runs = num_runs
        self.base_seed = base_seed
        self.system = system or SystemConfig()
        if partition_method is not None:
            # The system carries the strategy so per-point variants (a
            # partition_method axis) and the base default share one code path.
            self.system = replace(self.system,
                                  partition_method=partition_method)
        self.partition_method = self.system.partition_method
        self.partition_seed = partition_seed
        self.cache = cache if cache is not None else default_cache(cache_dir)

        custom = _normalise_axes(axes)
        self._benchmarks = self._benchmark_axis(benchmarks, custom)
        self._designs = self._design_arg(designs, custom)
        self._custom_axes = [a for a in custom
                             if a.fields != ("benchmark",)
                             and a.fields != ("design",)]
        self._validate_axes()

        self._backend_arg = backend
        self._backend: Optional[ExecutionBackend] = None
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self._compilers: Dict[str, CellCompiler] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _benchmark_axis(benchmarks, custom: List[Axis]) -> List[str]:
        explicit = [a for a in custom if a.fields == ("benchmark",)]
        if len(explicit) > 1:
            # These axes are lifted out of the grid, so GridSpec's
            # duplicate-field check never sees them; dropping one silently
            # would lose whole benchmarks from the results.
            raise ConfigurationError("study has more than one 'benchmark' axis")
        if benchmarks is None:
            if not explicit:
                raise ConfigurationError(
                    "study needs benchmarks (argument or a 'benchmark' axis)"
                )
            return [str(v) for v in explicit[0].values]
        if explicit:
            raise ConfigurationError(
                "pass benchmarks either as an argument or as an axis, not both"
            )
        names = [benchmarks] if isinstance(benchmarks, str) else list(benchmarks)
        if not names:
            raise ConfigurationError("study needs at least one benchmark")
        return [str(name) for name in names]

    @staticmethod
    def _design_arg(designs, custom: List[Axis]):
        explicit = [a for a in custom if a.fields == ("design",)]
        if len(explicit) > 1:
            raise ConfigurationError("study has more than one 'design' axis")
        if explicit and designs is not None:
            raise ConfigurationError(
                "pass designs either as an argument or as an axis, not both"
            )
        if explicit:
            return list(explicit[0].values)
        return designs

    def _design_values(self) -> List[Union[str, DesignSpec]]:
        """The design axis values, resolved at expansion time.

        ``None`` means every design registered *now* — late registrations
        are picked up, unlike a default frozen at import time.
        """
        designs = self._designs
        if designs is None:
            return list(list_designs())
        if isinstance(designs, (str, DesignSpec)):
            designs = [designs]
        values = list(designs)
        if not values:
            raise ConfigurationError("study needs at least one design")
        seen: Dict[str, Union[str, DesignSpec]] = {}
        for value in values:
            name = (value.name if isinstance(value, DesignSpec)
                    else str(value)).lower()
            if name in seen and seen[name] != value:
                # Records are keyed by design name; distinct variants under
                # one name would silently pool their statistics.
                raise ConfigurationError(
                    f"two distinct design-axis values share the name "
                    f"{name!r}; give variants unique names via "
                    f"with_overrides(name=...)"
                )
            seen[name] = value
        return values

    def _validate_axes(self) -> None:
        seed_axes = sum(1 for axis in self._custom_axes
                        if axis.fields == ("seed",))
        if seed_axes > 1:
            # Seed axes are lifted out of the grid (they replace the
            # repetition range), so GridSpec's duplicate-field check never
            # sees them; reject duplicates here instead of dropping one.
            raise ConfigurationError("study has more than one 'seed' axis")
        for axis in self._custom_axes:
            if "seed" in axis.fields and len(axis.fields) > 1:
                raise ConfigurationError(
                    "'seed' cannot be zipped with other fields; it replaces "
                    "the base_seed/num_runs repetition range, which applies "
                    "to every cell"
                )
            for index, field in enumerate(axis.fields):
                if field in ("benchmark", "design"):
                    raise ConfigurationError(
                        f"{field!r} cannot be zipped with other fields; "
                        f"pass it via the {field}s argument"
                    )
                if field in RESERVED_AXES:
                    self._check_executor_values(axis, index, field)
                    continue
                if field not in _SYSTEM_FIELDS:
                    non_scalar = tuple(
                        f.name for f in dataclass_fields(SystemConfig)
                        if f.name not in _SYSTEM_FIELDS
                    )
                    if field in non_scalar:
                        raise ConfigurationError(
                            f"SystemConfig field {field!r} is not a scalar "
                            f"and cannot be swept as an axis; sweepable "
                            f"axes — reserved: {', '.join(RESERVED_AXES)}; "
                            f"numeric system fields: "
                            f"{', '.join(_SYSTEM_NUMERIC_FIELDS)}; string "
                            f"system fields: "
                            f"{', '.join(_SYSTEM_STRING_FIELDS)}"
                        )
                    raise ConfigurationError(
                        f"unknown axis field {field!r}; sweepable axes — "
                        f"reserved: {', '.join(RESERVED_AXES)}; numeric "
                        f"system fields: {', '.join(_SYSTEM_NUMERIC_FIELDS)}; "
                        f"string system fields: "
                        f"{', '.join(_SYSTEM_STRING_FIELDS)}"
                    )
                for value in axis.values:
                    item = value[index] if len(axis.fields) > 1 else value
                    if field in _SYSTEM_STRING_FIELDS:
                        self._check_string_field_value(field, item)
                    elif isinstance(item, bool) or not isinstance(
                            item, (int, float)):
                        raise ConfigurationError(
                            f"system axis {field!r} values must be numbers, "
                            f"got {item!r}"
                        )

    def _check_string_field_value(self, field: str, item: Any) -> None:
        """Resolve registry-name axis values eagerly so a typo fails at
        study construction, not mid-run in a system variant."""
        if not isinstance(item, str):
            raise ConfigurationError(
                f"system axis {field!r} values must be registry names "
                f"(strings), got {item!r}"
            )
        try:
            if field == "partition_method":
                partitioner = get_partitioner(item)
                # Capability check against the node count, unless num_nodes
                # is itself swept — then each variant's SystemConfig checks
                # its own combination at plan-expansion time.
                num_nodes_swept = any("num_nodes" in axis.fields
                                      for axis in self._custom_axes)
                if (not num_nodes_swept and self.system.num_nodes > 2
                        and not partitioner.supports_k_way):
                    raise ConfigurationError(
                        f"partition_method axis value {item!r} only supports "
                        f"bisection but the system has "
                        f"{self.system.num_nodes} nodes"
                    )
            elif field == "topology":
                topology = get_topology(item)
                if not any("num_nodes" in axis.fields
                           for axis in self._custom_axes):
                    topology.links(self.system.num_nodes)
        except (PartitionError, TopologyError) as error:
            raise ConfigurationError(
                f"invalid {field!r} axis value: {error}"
            ) from None

    @staticmethod
    def _check_executor_values(axis: Axis, index: int, field: str) -> None:
        """Type-check reserved-axis values so bad grids fail at build time,
        not with a raw traceback deep inside execution."""
        for value in axis.values:
            item = value[index] if len(axis.fields) > 1 else value
            if field == "adaptive_policy":
                if not isinstance(item, AdaptivePolicy):
                    raise ConfigurationError(
                        f"'adaptive_policy' axis values must be "
                        f"AdaptivePolicy instances, got {item!r}"
                    )
            elif field == "segment_length":
                if item is not None and (isinstance(item, bool)
                                         or not isinstance(item, int)):
                    raise ConfigurationError(
                        f"'segment_length' axis values must be integers "
                        f"(or None for the design default), got {item!r}"
                    )
            elif field == "seed":
                if (isinstance(item, bool) or not isinstance(item, int)
                        or item < 0):
                    raise ConfigurationError(
                        f"'seed' axis values must be non-negative integers, "
                        f"got {item!r}"
                    )

    # ------------------------------------------------------------------
    # grid and plan
    # ------------------------------------------------------------------
    @property
    def grid(self) -> GridSpec:
        """The full grid: custom axes (outermost), benchmark, design."""
        axes = [
            *(a for a in self._custom_axes if "seed" not in a.fields),
            Axis("benchmark", self._benchmarks),
            Axis("design", self._design_values()),
        ]
        return GridSpec(axes)

    def seeds(self) -> List[int]:
        """Seeds each cell is replayed under (seed axis or base range)."""
        for axis in self._custom_axes:
            if axis.fields == ("seed",):
                return [int(v) for v in axis.values]
        return [self.base_seed + index for index in range(self.num_runs)]

    def _point_cell(self, point: Dict[str, Any],
                    seeds: Tuple[int, ...]) -> PlanCell:
        system_overrides = {
            key: value for key, value in point.items()
            if key in _SYSTEM_FIELDS
        }
        system = (replace(self.system, **system_overrides)
                  if system_overrides else self.system)
        params = {
            key: value for key, value in point.items()
            if key not in ("benchmark", "design")
        }
        return PlanCell(
            benchmark=point["benchmark"],
            design=point["design"],
            system=system,
            seeds=seeds,
            segment_length=point.get("segment_length"),
            adaptive_policy=point.get("adaptive_policy"),
            params=params,
        )

    def plan(self) -> ExecutionPlan:
        """Expand the grid into the lazy, deduplicated execution plan."""
        grid = self.grid
        seeds = tuple(self.seeds())  # identical for every cell; build once
        return ExecutionPlan(self._point_cell(point, seeds)
                             for point in grid.points())

    # ------------------------------------------------------------------
    # engine plumbing
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The resolved execution backend (created lazily)."""
        if self._backend is None:
            self._backend = get_backend(self._backend_arg)
        return self._backend

    def compiler_for(self, system: Optional[SystemConfig] = None) -> CellCompiler:
        """The (cached) compile stage of one system variant.

        Every compiler of the study shares :attr:`cache`, so artifacts that
        do not depend on the varied fields — notably partitioned programs —
        are reused across system variants.
        """
        system = system or self.system
        key = fingerprint("study-system", system, self.partition_seed)
        compiler = self._compilers.get(key)
        if compiler is None:
            # The system variant carries its own partition_method/topology,
            # so a swept strategy reaches the compiler with no extra plumbing.
            compiler = CellCompiler(
                system=system,
                partition_seed=self.partition_seed,
                cache=self.cache,
            )
            self._compilers[key] = compiler
        return compiler

    def compile_plan(self, plan: Optional[ExecutionPlan] = None
                     ) -> List[CompiledCell]:
        """Compile every plan cell (cache-served where possible), in order."""
        plan = plan if plan is not None else self.plan()
        return [
            self.compiler_for(cell.system).compile(
                cell.benchmark, cell.design,
                segment_length=cell.segment_length,
                adaptive_policy=cell.adaptive_policy,
            )
            for cell in plan
        ]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def plan_fingerprint(self, plan: Optional[ExecutionPlan] = None) -> str:
        """Stable identity of the executable plan (the run-store key).

        Covers every cell's configuration fingerprint — benchmark, design,
        the full :class:`SystemConfig`, scheduling knobs, and the seed
        list — plus the shared partitioner seed, so two studies share a
        store if and only if they would execute the identical grid.
        """
        plan = plan if plan is not None else self.plan()
        return fingerprint("study-plan", self.partition_seed,
                           tuple(cell.key for cell in plan))

    def run(self, plan: Optional[ExecutionPlan] = None, *,
            store: Union[None, str, Path, RunStore] = None,
            progress: Optional[ProgressCallback] = None,
            max_chunks: Optional[int] = None,
            store_chunk_size: Optional[int] = None,
            store_format: Optional[str] = None) -> ResultSet:
        """Execute the study and return its flat result set.

        The plan is split into deterministic chunks (cells in plan order,
        seed ranges within each cell); chunks a ``store`` has already
        committed are filtered out, only the cells with chunks left are
        compiled, and their chunks are submitted to the backend as one
        flat batch, so a parallel backend balances across every cell of
        every system variant at once.  Streamed results are turned into
        records (and persisted, with a store) chunk by chunk.  With a
        store, the returned set is one
        :meth:`~repro.study.store.RunStore.load_results` read in plan
        order, whichever invocation ran each chunk — which is what makes a
        resumed study byte-identical to an uninterrupted one — with
        :meth:`describe` as the metadata; a store with nothing left to run
        compiles nothing and takes no lock.  Pass a pre-expanded ``plan``
        to avoid expanding the grid twice.

        Parameters
        ----------
        store:
            Optional durable :class:`~repro.study.store.RunStore` (or its
            directory path): results stream to append-only shards as
            chunks complete, and chunks the store has already committed
            are *skipped* — re-running the same study against the same
            store resumes where a previous (possibly killed) invocation
            stopped, with a final result byte-identical to an
            uninterrupted run.
        progress:
            Optional callback receiving a
            :class:`~repro.study.store.ProgressEvent` once at start and
            after every completed chunk.
        max_chunks:
            Execute at most this many *new* chunks, then return what is
            complete so far (the store keeps the progress).  ``0`` loads a
            store's existing records without executing anything.
        store_chunk_size:
            Seeds per chunk (default
            :data:`~repro.study.store.DEFAULT_CHUNK_SIZE`); an existing
            store keeps its committed layout.
        store_format:
            Accepts only ``None`` and ``"jsonl"``, the one shard encoding;
            anything else raises :class:`~repro.exceptions.ConfigurationError`.
            The keyword remains only because the benchmark harness
            (``perfbench/sweep.py``) passes ``store_format="jsonl"``.
        """
        plan = plan if plan is not None else self.plan()
        if store_chunk_size is not None and store_chunk_size < 1:
            raise ConfigurationError("store chunk size must be positive")
        if max_chunks is not None and max_chunks < 0:
            raise ConfigurationError("max_chunks cannot be negative")
        if store_format not in (None, "jsonl"):
            raise ConfigurationError(
                f"unknown store shard format {store_format!r}; run stores "
                f"are written as jsonl only"
            )
        if store is not None and not isinstance(store, RunStore):
            store = RunStore(store, chunk_size=store_chunk_size)
        cells = plan.cells
        compiled: Dict[int, CompiledCell] = {}

        def compile_cells_of(chunks: List[StoreChunk]) -> None:
            needed = sorted({chunk.cell for chunk in chunks} - compiled.keys())
            compiled.update(zip(needed, self.compile_plan(
                ExecutionPlan(cells[index] for index in needed))))

        completed: set = set()
        chunk_size = store_chunk_size or DEFAULT_CHUNK_SIZE
        if store is not None:
            plan_key = self.plan_fingerprint(plan)
            # A read-only look decides what to compile, so a failing
            # compile leaves no store and no held lock behind.
            completed = store.committed_for(plan_key)
            chunk_size = store.chunk_size
        layout, pending = _pending_chunks(cells, chunk_size, completed,
                                          max_chunks)
        compile_cells_of(pending)
        # With nothing to execute, a started store is only read: no lock.
        if store is not None and (pending or not store.is_started):
            store.begin(
                plan_key, self.describe(),
                [{"benchmark": cell.benchmark, "design": cell.design_name,
                  "num_seeds": len(cell.seeds)} for cell in cells],
            )
            try:
                # begin()'s manifest and log decide: another invocation may
                # have created the store (with its own chunk size) or
                # committed chunks since the look.  Only then does a
                # pending cell still need compiling, under the lock.
                chunk_size = store.chunk_size
                completed = store.completed_ids()
                layout, pending = _pending_chunks(cells, chunk_size,
                                                  completed, max_chunks)
                compile_cells_of(pending)
            except BaseException:
                store.release()
                raise
        resumed = [chunk for chunk in layout if chunk.id in completed]
        params = [{key: param_token(value)
                   for key, value in cell.params.items()} for cell in cells]
        sink = _ChunkSink(
            pending, cells=cells, params=params, store=store,
            progress=progress, chunk_size=chunk_size,
            total_chunks=len(layout),
            total_tasks=sum(chunk.count for chunk in layout),
            resumed_chunks=len(resumed),
            resumed_tasks=sum(chunk.count for chunk in resumed),
        )
        tasks = [
            ExecutionTask(compiled[chunk.cell], seed)
            for chunk in pending
            for seed in cells[chunk.cell].seeds[chunk.start:chunk.start
                                                + chunk.count]
        ]
        try:
            sink.start()
            if tasks:
                self.backend.execute(tasks, sink=sink)
        finally:
            if store is not None:
                # The writer lock is held from begin(); the read below (and
                # other processes) need the store, not the lock.
                store.release()
        if store is None:
            return ResultSet([record for chunk in pending
                              for record in sink.records[chunk.id]],
                             metadata=self.describe())
        # One columnar read answers for every chunk, run now or before.
        results = store.load_results(allow_partial=True)
        results.metadata = self.describe()
        return results

    # ------------------------------------------------------------------
    # description / persistence
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-friendly study description (stored as result metadata).

        Registered design names stay plain strings; explicit
        :class:`DesignSpec` values (e.g. ablation overrides) are serialised
        in full so :meth:`from_spec` re-runs the override, not the base
        design of the same name.
        """
        designs = self._designs
        if designs is None:
            design_entries: Optional[List[Any]] = None
        else:
            values = ([designs] if isinstance(designs, (str, DesignSpec))
                      else list(designs))
            design_entries = [
                jsonify(v) if isinstance(v, DesignSpec) else str(v)
                for v in values
            ]
        return {
            "name": self.name,
            "benchmarks": list(self._benchmarks),
            "designs": design_entries,
            "axes": [axis.to_spec() for axis in
                     (Axis(a.fields, jsonify(a.values))
                      for a in self._custom_axes)],
            "num_runs": self.num_runs,
            "base_seed": self.base_seed,
            "partition_method": self.partition_method,
            "partition_seed": self.partition_seed,
            "system": jsonify(self.system),
        }

    def to_spec(self) -> Dict[str, Any]:
        """Alias of :meth:`describe` (the CLI spec-file format)."""
        return self.describe()

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any],
                  backend: BackendLike = None,
                  cache: Optional[ArtifactCache] = None,
                  cache_dir: Union[None, str, Path] = None) -> "Study":
        """Build a study from a :meth:`to_spec` / CLI JSON dictionary.

        Only JSON-native axis values (numbers, strings, zipped lists) are
        supported here; programmatic studies may additionally sweep
        :class:`DesignSpec` / :class:`AdaptivePolicy` objects directly.

        Every validation failure raises
        :class:`~repro.exceptions.SpecValidationError` — a
        :class:`ConfigurationError` whose ``field`` / ``allowed`` payload
        names the offending spec location machine-readably, so the CLI and
        the service API surface the same structured diagnosis.
        """
        known = {"name", "benchmarks", "designs", "axes", "num_runs",
                 "base_seed", "partition_method", "partition_seed", "system"}
        unknown = set(spec) - known
        if unknown:
            raise SpecValidationError(
                f"unknown study spec keys: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}",
                field=sorted(unknown)[0], allowed=sorted(known),
            )
        if not isinstance(spec.get("system") or {}, Mapping):
            raise SpecValidationError(
                f"'system' must be a mapping of SystemConfig fields, "
                f"got {spec['system']!r}", field="system",
            )
        system_spec = dict(spec.get("system") or {})
        gate_times = system_spec.pop("gate_times", None)
        fidelities = system_spec.pop("fidelities", None)
        unknown_fields = set(system_spec) - set(_SYSTEM_FIELDS)
        if unknown_fields:
            raise SpecValidationError(
                f"unknown system fields in spec: "
                f"{', '.join(sorted(unknown_fields))}",
                field=f"system.{sorted(unknown_fields)[0]}",
                allowed=sorted(_SYSTEM_FIELDS),
            )
        try:
            system = SystemConfig(
                **system_spec,
                **({"gate_times": GateTimes(**gate_times)}
                   if gate_times else {}),
                **({"fidelities": GateFidelities(**fidelities)}
                   if fidelities else {}),
            )
        except (ConfigurationError, TypeError, ValueError) as error:
            raise SpecValidationError(
                f"invalid system configuration in spec: {error}",
                field="system",
            ) from None
        try:
            axes = [
                cls._revive_axis(axis if isinstance(axis, Axis)
                                 else Axis.from_spec(axis))
                for axis in spec.get("axes", [])
            ]
        except SpecValidationError:
            raise
        except (ConfigurationError, TypeError) as error:
            raise SpecValidationError(
                f"invalid axis entry in spec: {error}", field="axes",
            ) from None
        designs = spec.get("designs")
        if designs is not None:
            if isinstance(designs, (str, Mapping)):
                designs = [designs]
            try:
                designs = [cls._design_from_entry(entry)
                           for entry in designs]
            except SpecValidationError:
                raise
            except (ConfigurationError, TypeError) as error:
                raise SpecValidationError(
                    f"invalid design entry in spec: {error}",
                    field="designs", allowed=list(list_designs()),
                ) from None
        cls._validate_registry_names(spec.get("benchmarks"), designs, axes)
        # Zipped axis values arrive from JSON as lists; Axis normalises them.
        try:
            return cls(
                benchmarks=spec.get("benchmarks"),
                designs=designs,
                axes=axes,
                num_runs=spec.get("num_runs", 1),
                base_seed=spec.get("base_seed", 1),
                system=system,
                partition_method=spec.get("partition_method"),
                partition_seed=spec.get("partition_seed", 0),
                backend=backend,
                cache=cache,
                cache_dir=cache_dir,
                name=spec.get("name"),
            )
        except SpecValidationError:
            raise
        except ConfigurationError as error:
            # Constructor-level validation (axis fields, benchmark/design
            # arguments, registry names) — classify the failing spec field
            # from the message's subject so API consumers can highlight it.
            raise SpecValidationError(
                str(error), field=cls._spec_field_of(error),
            ) from None
        except (TypeError, ValueError) as error:
            raise SpecValidationError(
                f"malformed study spec: {error}"
            ) from None

    @staticmethod
    def _validate_registry_names(benchmarks, designs, axes) -> None:
        """Reject unknown benchmark / design *names* at spec-load time.

        Execution resolves names lazily (late registration is a feature
        for programmatic studies), but a spec is data from outside the
        process: a typo should be a structured diagnosis at submission,
        not a failed job after the queue drains.
        """
        from repro.benchmarks.registry import get_benchmark, list_benchmarks
        from repro.runtime.designs import get_design

        def axis_strings(field: str) -> List[str]:
            found: List[str] = []
            for axis in axes:
                if field not in axis.fields:
                    continue
                position = axis.fields.index(field)
                for value in axis.values:
                    item = value[position] if len(axis.fields) > 1 else value
                    if isinstance(item, str):
                        found.append(item)
            return found

        names = [benchmarks] if isinstance(benchmarks, str) else [
            entry for entry in (benchmarks or []) if isinstance(entry, str)]
        for name in names + axis_strings("benchmark"):
            try:
                get_benchmark(name)
            except BenchmarkError as error:
                raise SpecValidationError(
                    str(error), field="benchmarks",
                    allowed=list_benchmarks() + ["TLIM-<n>", "QAOA-r<d>-<n>",
                                                 "QFT-<n>"],
                ) from None
        entries = ([designs] if isinstance(designs, (str, DesignSpec))
                   else list(designs or []))
        for entry in (e for e in entries if isinstance(e, str)):
            try:
                get_design(entry)
            except ConfigurationError as error:
                raise SpecValidationError(
                    str(error), field="designs", allowed=list(list_designs()),
                ) from None
        for name in axis_strings("design"):
            try:
                get_design(name)
            except ConfigurationError as error:
                raise SpecValidationError(
                    str(error), field="designs", allowed=list(list_designs()),
                ) from None

    @staticmethod
    def _spec_field_of(error: ConfigurationError) -> Optional[str]:
        """Best-effort spec field named by a constructor validation error."""
        message = str(error)
        for token, field in (
            ("base_seed", "base_seed"),
            ("partition_seed", "partition_seed"),
            ("benchmark", "benchmarks"),
            ("design", "designs"),
            ("axis", "axes"),
            ("seed", "axes"),
            ("run", "num_runs"),
            ("partition_method", "partition_method"),
            ("topology", "system.topology"),
        ):
            if token in message:
                return field
        return None

    @staticmethod
    def _revive_axis(axis: Axis) -> Axis:
        """Rebuild rich axis values that describe() serialised to dicts.

        An ``adaptive_policy`` axis (possibly zipped with other fields)
        round-trips through its field dict; leaving the dicts in place
        would crash deep inside execution, so they are revived here (and
        anything unexpected fails Study validation at load time).
        """
        if "adaptive_policy" not in axis.fields:
            return axis
        position = axis.fields.index("adaptive_policy")

        def revive(item):
            return AdaptivePolicy(**item) if isinstance(item, Mapping) else item

        try:
            if len(axis.fields) == 1:
                values = [revive(value) for value in axis.values]
            else:
                values = [
                    tuple(revive(item) if index == position else item
                          for index, item in enumerate(value))
                    for value in axis.values
                ]
        except TypeError as error:
            raise SpecValidationError(
                f"invalid adaptive_policy axis value in spec: {error}",
                field="axes",
            ) from None
        return Axis(axis.fields, values)

    @staticmethod
    def _design_from_entry(entry: Union[str, Mapping[str, Any]]
                           ) -> Union[str, DesignSpec]:
        """Rebuild one spec-file design entry (name or serialised spec)."""
        if isinstance(entry, str):
            return entry
        from repro.entanglement.attempts import AttemptPolicy

        fields = dict(entry)
        policy = fields.get("attempt_policy")
        if isinstance(policy, str):
            try:
                fields["attempt_policy"] = AttemptPolicy[policy]
            except KeyError:
                raise SpecValidationError(
                    f"unknown attempt_policy {policy!r} in design entry",
                    field="designs",
                    allowed=[p.name for p in AttemptPolicy],
                ) from None
        try:
            return DesignSpec(**fields)
        except TypeError as error:
            raise SpecValidationError(
                f"invalid design entry in spec: {error}", field="designs",
            ) from None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the backend if this study created it."""
        if self._backend is not None and self._owns_backend:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "Study":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Study(benchmarks={self._benchmarks}, "
                f"axes={[tuple(a.fields) for a in self._custom_axes]}, "
                f"num_runs={self.num_runs})")


def _pending_chunks(cells: Sequence[PlanCell], chunk_size: int,
                    completed: set, max_chunks: Optional[int]
                    ) -> Tuple[List[StoreChunk], List[StoreChunk]]:
    """The chunk layout of ``cells`` and, in layout order, at most
    ``max_chunks`` of its chunks that ``completed`` does not hold."""
    layout = chunk_layout([len(cell.seeds) for cell in cells], chunk_size)
    pending = [chunk for chunk in layout if chunk.id not in completed]
    return layout, pending[:max_chunks]


class _ChunkSink:
    """Routes streamed backend results into durable store chunks.

    The backend delivers ``(start, batch)`` pieces in completion order and
    at *its* granularity; this sink reassembles them against the pending
    store chunks (whose tasks were submitted consecutively), and the moment
    every result of a chunk has arrived it builds the chunk's records,
    commits them to the store (without one, keeps them in ``records``),
    and fires a progress event.  The sink's
    ``chunk_size`` attribute doubles as the granularity hint backends use
    to align their internal chunking with the durable boundaries.
    """

    def __init__(self, pending: Sequence[StoreChunk], *,
                 cells: Sequence[PlanCell],
                 params: Sequence[Dict[str, Any]],
                 store: Optional[RunStore],
                 progress: Optional[ProgressCallback],
                 chunk_size: int, total_chunks: int, total_tasks: int,
                 resumed_chunks: int, resumed_tasks: int) -> None:
        self.chunk_size = chunk_size
        self.records: Dict[str, List[RunRecord]] = {}
        self._pending = list(pending)
        self._cells = cells
        self._params = params
        self._store = store
        self._progress = progress
        self._total_chunks = total_chunks
        self._total_tasks = total_tasks
        self._resumed_chunks = resumed_chunks
        self._resumed_tasks = resumed_tasks
        self._offsets: List[int] = []
        offset = 0
        for chunk in self._pending:
            self._offsets.append(offset)
            offset += chunk.count
        self._results: List[Optional[ExecutionResult]] = [None] * offset
        self._remaining = [chunk.count for chunk in self._pending]
        self._flushed_chunks = 0
        self._flushed_tasks = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Reset the clock and report the resume point before execution."""
        self._started = time.monotonic()
        self._emit()

    def __call__(self, start: int, batch: Sequence[ExecutionResult]) -> None:
        end = start + len(batch)
        self._results[start:end] = batch
        index = self._chunk_at(start)
        while (index < len(self._pending)
               and self._offsets[index] < end):
            chunk_start = self._offsets[index]
            chunk_end = chunk_start + self._pending[index].count
            overlap = min(end, chunk_end) - max(start, chunk_start)
            if overlap > 0:
                self._remaining[index] -= overlap
                if self._remaining[index] == 0:
                    self._flush(index)
            index += 1

    # ------------------------------------------------------------------
    def _chunk_at(self, position: int) -> int:
        """Index of the pending chunk covering task ``position``."""
        low, high = 0, len(self._offsets) - 1
        while low < high:
            mid = (low + high + 1) // 2
            if self._offsets[mid] <= position:
                low = mid
            else:
                high = mid - 1
        return low

    def _flush(self, index: int) -> None:
        chunk = self._pending[index]
        start = self._offsets[index]
        results = self._results[start:start + chunk.count]
        records = [
            RunRecord.from_execution_result(result, self._params[chunk.cell])
            for result in results
        ]
        # Backends keep no batch once it is delivered, so these slots hold
        # the last references to the flushed results: clearing them leaves
        # only the results of chunks still waiting for a piece alive.
        self._results[start:start + chunk.count] = [None] * chunk.count
        if self._store is not None:
            self._store.append_chunk(chunk, records)
        else:
            self.records[chunk.id] = records
        self._flushed_chunks += 1
        self._flushed_tasks += chunk.count
        self._emit()

    def _emit(self) -> None:
        if self._progress is None:
            return
        self._progress(ProgressEvent(
            done_chunks=self._resumed_chunks + self._flushed_chunks,
            total_chunks=self._total_chunks,
            done_tasks=self._resumed_tasks + self._flushed_tasks,
            total_tasks=self._total_tasks,
            resumed_chunks=self._resumed_chunks,
            resumed_tasks=self._resumed_tasks,
            elapsed=time.monotonic() - self._started,
        ))
