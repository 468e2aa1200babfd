"""Batched execution core: equivalence with the legacy reference executor.

The contract of this PR: for identical seeds the trajectory-batched
executor produces :class:`ExecutionResult`s *bit-identical* to the legacy
:class:`DesignExecutor` — every field, including remote-gate records,
fidelity breakdowns, entanglement statistics, and adaptive variant
histograms.  These tests pin that contract across all six designs, across
topologies, with prebuilt schedule lookup tables, and through the engine's
backends and chunked dispatch.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import SystemConfig
from repro.engine import (
    ArtifactCache,
    CellCompiler,
    ProcessPoolBackend,
    SerialBackend,
    chunk_tasks,
)
from repro.engine.backends import ExecutionTask, get_backend
from repro.exceptions import ConfigurationError
from repro.runtime import (
    BatchedExecutor,
    DesignExecutor,
    list_designs,
)
from repro.runtime.executor import build_program_lookup
from repro.runtime.gatestream import OP_REMOTE, lower_cell
from repro.runtime.designs import get_design

SEEDS = [1, 2, 3]


def reference_batch(cell, seeds):
    """Replay ``cell`` per seed through the reference DesignExecutor."""
    return [
        cell.executor(seed=seed).run(cell.program,
                                     benchmark_name=cell.benchmark)
        for seed in seeds
    ]


def _assert_identical(legacy, batched):
    assert len(legacy) == len(batched)
    for reference, candidate in zip(legacy, batched):
        assert candidate.seed == reference.seed
        assert candidate.makespan == reference.makespan
        assert candidate.fidelity == reference.fidelity
        assert candidate.fidelity_breakdown == reference.fidelity_breakdown
        assert candidate.qubit_idle_total == reference.qubit_idle_total
        assert candidate.remote_records == reference.remote_records
        assert candidate.epr_statistics == reference.epr_statistics
        assert candidate.variant_histogram == reference.variant_histogram
        # Full dataclass equality last: catches any field the above missed.
        assert candidate == reference


# ---------------------------------------------------------------------------
# equivalence across the whole design / benchmark grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("design", list_designs())
@pytest.mark.parametrize("benchmark_name", ["TLIM-16", "QAOA-r2-16"])
def test_batched_equals_legacy_all_designs(benchmark_name, design):
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile(benchmark_name, design)
    legacy = reference_batch(cell, SEEDS)
    batched = cell.execute_batch(SEEDS)
    _assert_identical(legacy, batched)


@pytest.mark.parametrize("topology,partition_method", [
    ("all_to_all", "multilevel"),
    ("ring", "multilevel"),
    ("line", "contiguous"),
])
def test_batched_equals_legacy_across_topologies(topology, partition_method):
    system = SystemConfig(num_nodes=4, data_qubits_per_node=8,
                          comm_qubits_per_node=8, buffer_qubits_per_node=8,
                          topology=topology, partition_method=partition_method)
    compiler = CellCompiler(system=system)
    for design in ("original", "async_buf", "adapt_buf"):
        cell = compiler.compile("TLIM-32", design)
        _assert_identical(reference_batch(cell, SEEDS),
                          cell.execute_batch(SEEDS))


def test_batched_adaptive_uses_prebuilt_lookup():
    """The engine path hands the compile-time lookup to both cores."""
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QAOA-r2-16", "adapt_buf")
    assert cell.lookup is not None
    assert cell.streams is not None and cell.streams.segments is not None
    assert len(cell.streams.segments) == cell.lookup.num_segments
    legacy = reference_batch(cell, SEEDS)
    batched = cell.execute_batch(SEEDS)
    _assert_identical(legacy, batched)
    # Some run must actually exercise the adaptive rule for this to be a
    # meaningful equivalence case.
    assert any(sum(r.variant_histogram.values()) > 0 for r in batched)


def test_batched_adaptive_seeds_genuinely_diverge():
    """The equivalence only means something if seeds pick different variants.

    On the 4-node system the adaptive design's per-seed lookup decisions
    differ across seeds, so both cores are compared on several distinct
    variant schedules rather than one.
    """
    system = SystemConfig(num_nodes=4, data_qubits_per_node=8,
                          comm_qubits_per_node=8, buffer_qubits_per_node=8)
    cell = CellCompiler(system=system).compile("TLIM-32", "adapt_buf")
    seeds = list(range(1, 13))
    batched = cell.execute_batch(seeds)
    histograms = {tuple(sorted(r.variant_histogram.items())) for r in batched}
    assert len(histograms) > 1
    _assert_identical(reference_batch(cell, seeds), batched)


def test_empty_seed_batch():
    cell = CellCompiler(system=SystemConfig()).compile("TLIM-16", "original")
    assert cell.execute_batch([]) == []
    assert reference_batch(cell, []) == []


def test_batched_standalone_without_prebuilt_streams():
    """BatchedExecutor over explicitly lowered streams, outside the compiler.

    The reference DesignExecutor builds its own lookup table; the batched
    core is handed the lowered streams and the lookup they came from.
    """
    from repro.benchmarks.registry import build_benchmark
    from repro.partitioning.assigner import distribute_circuit

    system = SystemConfig()
    architecture = system.build_architecture()
    program = distribute_circuit(build_benchmark("TLIM-16"), num_nodes=2)
    for name in ("async_buf", "adapt_buf", "ideal"):
        design = get_design(name)
        legacy = [
            DesignExecutor(architecture, design, seed=seed).run(program)
            for seed in SEEDS
        ]
        lookup = (build_program_lookup(architecture, program)
                  if design.adaptive_scheduling else None)
        streams = lower_cell(program, architecture, design, lookup=lookup)
        batched = BatchedExecutor(architecture, design, streams=streams,
                                  lookup=lookup).run_batch(program, SEEDS)
        _assert_identical(legacy, batched)


def test_batched_custom_segment_length_and_policy():
    from repro.scheduling.policies import AdaptivePolicy

    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "adapt_buf", segment_length=3,
                            adaptive_policy=AdaptivePolicy(asap_threshold=2))
    _assert_identical(reference_batch(cell, SEEDS),
                      cell.execute_batch(SEEDS))


def test_ideal_batch_results_are_independent_objects():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QFT-16", "ideal")
    results = cell.execute_batch([1, 2])
    assert results[0].seed == 1 and results[1].seed == 2
    assert results[0].fidelity_breakdown == results[1].fidelity_breakdown
    assert results[0].fidelity_breakdown is not results[1].fidelity_breakdown
    assert results[0].remote_records is not results[1].remote_records


# ---------------------------------------------------------------------------
# gate-stream lowering
# ---------------------------------------------------------------------------
def test_lowered_stream_matches_program():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "async_buf")
    streams = cell.streams
    circuit = cell.program.circuit
    rows = streams.flat.rows
    assert len(rows) == circuit.num_gates
    remote = [i for i, gate in enumerate(circuit.gates) if gate.is_remote]
    assert [i for i, row in enumerate(rows) if row[0] == OP_REMOTE] == remote
    for index in remote:
        gate = circuit.gates[index]
        _op, qubit_a, qubit_b, _duration, pair_id = rows[index]
        assert (qubit_a, qubit_b) == gate.qubits
        nodes = tuple(sorted(cell.program.node_of(q) for q in gate.qubits))
        assert streams.pair_list[pair_id] == nodes
    assert streams.num_single + streams.num_two_total + streams.num_measure \
        <= circuit.num_gates
    assert streams.num_two_total - streams.num_local_two == len(remote)


def test_lower_cell_requires_lookup_for_adaptive():
    from repro.exceptions import RuntimeSimulationError

    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "adapt_buf")
    with pytest.raises(RuntimeSimulationError):
        lower_cell(cell.program, cell.architecture, get_design("adapt_buf"),
                   lookup=None)
    # Segment streams replay only with the lookup they were lowered from.
    with pytest.raises(RuntimeSimulationError, match="lookup"):
        BatchedExecutor(cell.architecture, cell.design, streams=cell.streams)


def test_segment_streams_tile_the_circuit():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QAOA-r2-16", "init_buf")
    total = sum(
        len(segment.variants["original"].rows)
        for segment in cell.streams.segments
    )
    assert total == cell.program.circuit.num_gates


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
def test_collect_trace_routes_to_legacy():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "async_buf")
    executor = cell.executor(seed=1, collect_trace=True)
    result = executor.run(cell.program, benchmark_name=cell.benchmark)
    assert executor.last_trace is not None
    assert result == cell.execute_batch([1])[0]


# ---------------------------------------------------------------------------
# backend chunking
# ---------------------------------------------------------------------------
def test_chunk_tasks_preserves_order_and_bounds():
    compiler = CellCompiler(system=SystemConfig())
    cell_a = compiler.compile("TLIM-16", "async_buf")
    cell_b = compiler.compile("TLIM-16", "ideal")
    tasks = [ExecutionTask(cell_a, 1), ExecutionTask(cell_a, 2),
             ExecutionTask(cell_b, 1), ExecutionTask(cell_a, 3),
             ExecutionTask(cell_a, 4), ExecutionTask(cell_a, 5)]
    chunks = chunk_tasks(tasks, chunk_size=2)
    assert [(cell is cell_a, seeds) for cell, seeds in chunks] == [
        (True, [1, 2]), (False, [1]), (True, [3, 4]), (True, [5]),
    ]
    flattened = [seed for _, seeds in chunks for seed in seeds]
    assert flattened == [task.seed for task in tasks]
    with pytest.raises(ConfigurationError):
        chunk_tasks(tasks, chunk_size=0)


def test_serial_backend_handles_interleaved_cells():
    compiler = CellCompiler(system=SystemConfig())
    cell_a = compiler.compile("TLIM-16", "async_buf")
    cell_b = compiler.compile("QFT-16", "original")
    tasks = [ExecutionTask(cell_a, 1), ExecutionTask(cell_b, 1),
             ExecutionTask(cell_a, 2), ExecutionTask(cell_b, 2)]
    results = SerialBackend().execute(tasks)
    assert [r.seed for r in results] == [1, 1, 2, 2]
    assert [r.benchmark for r in results] == [
        cell_a.benchmark, cell_b.benchmark, cell_a.benchmark, cell_b.benchmark,
    ]
    assert results == [task.cell.execute_batch([task.seed])[0]
                       for task in tasks]


def test_serial_backend_draws_each_seeds_variates_once(monkeypatch):
    import repro.entanglement.generator as generator_module

    compiler = CellCompiler(system=SystemConfig())
    cells = [compiler.compile(benchmark, design)
             for benchmark in ("TLIM-32", "QAOA-r4-32")
             for design in list_designs() if design != "ideal"]
    assert len(cells) == 10
    tasks = [ExecutionTask(cell, seed) for cell in cells for seed in SEEDS]
    entropies = []
    seed_sequence = generator_module.SeedSequence

    def counted(*args, **kwargs):
        entropies.append(kwargs["entropy"])
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(generator_module, "SeedSequence", counted)
    results = SerialBackend().execute(tasks)
    # One node pair of 10 communication-qubit pairs: 10 streams per seed,
    # shared by both benchmarks and all five stochastic designs.
    assert len(entropies) == len(SEEDS) * 10
    assert sorted(set(entropies)) == [seed + 1009 for seed in SEEDS]
    monkeypatch.undo()
    assert results == [
        task.cell.executor(seed=task.seed).run(
            task.cell.program, benchmark_name=task.cell.benchmark)
        for task in tasks
    ]


def test_process_backend_chunked_results_match_serial():
    compiler = CellCompiler(system=SystemConfig())
    cells = [compiler.compile("TLIM-16", design)
             for design in ("original", "async_buf", "adapt_buf")]
    tasks = [ExecutionTask(cell, seed) for cell in cells for seed in SEEDS]
    serial = SerialBackend().execute(tasks)
    with ProcessPoolBackend(max_workers=2, chunksize=2) as backend:
        first = backend.execute(tasks)
        # Second call brings a cell the pool initializer never saw, which
        # rebuilds the pool with the accumulated cell set.
        extra = compiler.compile("QFT-16", "async_buf")
        tasks_2 = tasks + [ExecutionTask(extra, seed) for seed in SEEDS]
        second = backend.execute(tasks_2)
    assert first == serial
    assert second[:len(tasks)] == serial
    assert second[len(tasks):] == SerialBackend().execute(
        [ExecutionTask(extra, seed) for seed in SEEDS]
    )


def test_process_backend_default_workers_never_one_on_multicore(monkeypatch):
    backend = ProcessPoolBackend()
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    # Every usable CPU gets a worker — never a lone worker on a multi-core
    # machine (the BENCH_engine.json 0.89x regression).
    assert backend._workers() >= 2
    if hasattr(os, "sched_getaffinity"):
        # Pinned to one CPU: a 2-worker pool would contend for it, which is
        # worse than serial; a single "worker" short-circuits to inline.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert backend._workers() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert backend._workers() == 1
    assert ProcessPoolBackend(max_workers=3)._workers() == 3


def test_get_backend_honours_repro_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert isinstance(get_backend(None), SerialBackend)
    monkeypatch.setenv("REPRO_BACKEND", "process")
    backend = get_backend(None)
    assert isinstance(backend, ProcessPoolBackend)
    backend.close()
    monkeypatch.setenv("REPRO_BACKEND", "")
    assert isinstance(get_backend(None), SerialBackend)


# ---------------------------------------------------------------------------
# ArtifactCache statistics (satellite)
# ---------------------------------------------------------------------------
def test_artifact_cache_hit_rate_guard_and_reset():
    cache = ArtifactCache()
    assert cache.hit_rate == 0.0
    assert cache.stats() == {
        "entries": 0, "hits": 0, "misses": 0, "lookups": 0, "hit_rate": 0.0,
    }
    assert cache.get("cell", "missing") is None
    cache.put("cell", "k", object())
    assert cache.get("cell", "k") is not None
    assert cache.stats()["lookups"] == 2
    assert cache.hit_rate == 0.5
    cache.reset_stats()
    assert cache.stats() == {
        "entries": 1, "hits": 0, "misses": 0, "lookups": 0, "hit_rate": 0.0,
    }


# ---------------------------------------------------------------------------
# bulk sampling (vectorized generator)
# ---------------------------------------------------------------------------
def test_block_sampling_matches_scalar_rng_stream():
    import numpy as np

    from repro.entanglement.attempts import AttemptSchedule
    from repro.entanglement.generator import EntanglementGenerator

    schedule = AttemptSchedule(num_pairs=4)
    generator = EntanglementGenerator(schedule, success_probability=0.4,
                                      seed=11)
    for pair in range(4):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=11, spawn_key=(pair,))
        )
        scalar = [bool(rng.random() < 0.4) for _ in range(300)]
        bulk = [generator.attempt_succeeds(pair, k) for k in range(300)]
        assert bulk == scalar


def test_bulk_successes_between_matches_attempt_scan():
    import numpy as np

    from repro.entanglement.attempts import AttemptSchedule
    from repro.entanglement.generator import EntanglementGenerator

    schedule = AttemptSchedule(num_pairs=3)
    generator = EntanglementGenerator(schedule, success_probability=0.3,
                                      seed=5)
    # Reference: each pair's own uniform stream, scanned attempt by attempt.
    outcomes = [
        np.random.default_rng(
            np.random.SeedSequence(entropy=5, spawn_key=(pair,))
        ).random(100) < 0.3
        for pair in range(3)
    ]
    for start, end in [(0.0, 35.0), (10.0, 10.0), (17.3, 220.0),
                       (220.0, 221.0), (0.0, 1.0)]:
        events = generator.successes_between(start, end)
        expected = []
        for pair in range(3):
            attempt = schedule.attempt_index_completing_after(pair, start)
            while True:
                completion = schedule.attempt_completion(pair, attempt)
                if completion > end + 1e-12:
                    break
                if completion > start + 1e-12 and outcomes[pair][attempt]:
                    expected.append((completion, pair, attempt))
                attempt += 1
        assert [tuple(e) for e in events] == sorted(expected)
