"""Batched execution core: equivalence with the legacy reference executor.

The contract: for identical seeds the trajectory-batched executor produces
:class:`ExecutionResult`s *bit-identical* to the legacy
:class:`DesignExecutor` — every field, including the remote-gate totals,
fidelity breakdowns, entanglement statistics, and adaptive variant
histograms — and makes the same ``EntanglementService.acquire`` call, with
the same link out, for every remote gate.  These tests pin that contract
across all six designs, across topologies, with prebuilt schedule lookup
tables, and through the engine's backends and chunked dispatch.
"""

from __future__ import annotations

import math
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from itertools import islice

import pytest

from repro.analysis.statistics import ordered_sum
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


def _assert_identical(acquire_calls, run_legacy, run_batched):
    """Replay through both cores; require identical runs and remote gates.

    ``run_legacy`` and ``run_batched`` replay the same seeds.  Every remote
    gate is compared through the ``acquire`` call it makes (the
    ``acquire_calls`` capture): the ready time in, and the link's start,
    creation time and fidelity out.  Each run's remote-gate totals must be
    its own gates' values added in gate order.  Returns the batched runs.
    """
    del acquire_calls[:]
    legacy = run_legacy()
    legacy_gates = acquire_calls[:]
    del acquire_calls[:]
    batched = run_batched()
    assert acquire_calls == legacy_gates
    assert len(legacy_gates) == sum(run.num_remote for run in legacy)
    assert len(legacy) == len(batched)
    gates = iter(legacy_gates)
    for reference, candidate in zip(legacy, batched):
        assert candidate.seed == reference.seed
        assert candidate.makespan == reference.makespan
        assert candidate.fidelity == reference.fidelity
        assert candidate.fidelity_breakdown == reference.fidelity_breakdown
        run_gates = list(islice(gates, reference.num_remote))
        assert candidate.remote_wait_total == ordered_sum(
            max(0.0, start - ready) for ready, start, _, _ in run_gates)
        assert candidate.link_fidelity_total == ordered_sum(
            fidelity for _, _, _, fidelity in run_gates)
        assert candidate.epr_statistics == reference.epr_statistics
        assert candidate.variant_histogram == reference.variant_histogram
        # Full dataclass equality last: catches any field the above missed.
        assert candidate == reference
    return batched


# ---------------------------------------------------------------------------
# equivalence across the whole design / benchmark grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("design", list_designs())
@pytest.mark.parametrize("benchmark_name", ["TLIM-16", "QAOA-r2-16"])
def test_batched_equals_legacy_all_designs(benchmark_name, design,
                                           acquire_calls):
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile(benchmark_name, design)
    runs = _assert_identical(acquire_calls,
                             lambda: reference_batch(cell, SEEDS),
                             lambda: cell.execute_batch(SEEDS))
    # Idle decoherence is charged once, on the makespan.
    for run in runs:
        assert run.fidelity_breakdown.idling_factor == math.exp(
            -cell.architecture.decoherence_rate * run.makespan)


@pytest.mark.parametrize("topology,partition_method", [
    ("all_to_all", "multilevel"),
    ("ring", "multilevel"),
    ("line", "contiguous"),
])
def test_batched_equals_legacy_across_topologies(topology, partition_method,
                                                 acquire_calls):
    system = SystemConfig(num_nodes=4, data_qubits_per_node=8,
                          comm_qubits_per_node=8, buffer_qubits_per_node=8,
                          topology=topology, partition_method=partition_method)
    compiler = CellCompiler(system=system)
    for design in ("original", "async_buf", "adapt_buf"):
        cell = compiler.compile("TLIM-32", design)
        _assert_identical(acquire_calls, lambda: reference_batch(cell, SEEDS),
                          lambda: cell.execute_batch(SEEDS))


def test_batched_adaptive_uses_prebuilt_lookup(acquire_calls):
    """The engine path hands the compile-time lookup to both cores."""
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QAOA-r2-16", "adapt_buf")
    assert cell.lookup is not None
    assert cell.streams is not None and cell.streams.segments is not None
    assert len(cell.streams.segments) == cell.lookup.num_segments
    batched = _assert_identical(acquire_calls,
                                lambda: reference_batch(cell, SEEDS),
                                lambda: cell.execute_batch(SEEDS))
    # Some run must actually exercise the adaptive rule for this to be a
    # meaningful equivalence case.
    assert any(sum(r.variant_histogram.values()) > 0 for r in batched)


def test_batched_adaptive_seeds_genuinely_diverge(acquire_calls):
    """The equivalence only means something if seeds pick different variants.

    On the 4-node system the adaptive design's per-seed lookup decisions
    differ across seeds, so both cores are compared on several distinct
    variant schedules rather than one.
    """
    system = SystemConfig(num_nodes=4, data_qubits_per_node=8,
                          comm_qubits_per_node=8, buffer_qubits_per_node=8)
    cell = CellCompiler(system=system).compile("TLIM-32", "adapt_buf")
    seeds = list(range(1, 13))
    batched = _assert_identical(acquire_calls,
                                lambda: reference_batch(cell, seeds),
                                lambda: cell.execute_batch(seeds))
    histograms = {tuple(sorted(r.variant_histogram.items())) for r in batched}
    assert len(histograms) > 1


def test_empty_seed_batch():
    cell = CellCompiler(system=SystemConfig()).compile("TLIM-16", "original")
    assert cell.execute_batch([]) == []
    assert reference_batch(cell, []) == []


def test_batched_standalone_without_prebuilt_streams(acquire_calls):
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
        lookup = (build_program_lookup(architecture, program)
                  if design.adaptive_scheduling else None)
        streams = lower_cell(program, architecture, design, lookup=lookup)
        executor = BatchedExecutor(architecture, design, streams=streams,
                                   lookup=lookup)
        _assert_identical(
            acquire_calls,
            lambda: [DesignExecutor(architecture, design, seed=seed)
                     .run(program) for seed in SEEDS],
            lambda: executor.run_batch(program, SEEDS))


def test_batched_custom_segment_length_and_policy(acquire_calls):
    from repro.scheduling.policies import AdaptivePolicy

    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "adapt_buf", segment_length=3,
                            adaptive_policy=AdaptivePolicy(asap_threshold=2))
    _assert_identical(acquire_calls, lambda: reference_batch(cell, SEEDS),
                      lambda: cell.execute_batch(SEEDS))


def test_ideal_batch_results_are_independent_objects():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QFT-16", "ideal")
    results = cell.execute_batch([1, 2])
    assert results[0].seed == 1 and results[1].seed == 2
    assert results[0].fidelity_breakdown == results[1].fidelity_breakdown
    assert results[0].fidelity_breakdown is not results[1].fidelity_breakdown


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


class _SinkOfTwo:
    """A sink declaring a two-seed granularity; collects the results.

    ``results()`` reassembles what the sink received in task order;
    ``sizes`` records each batch's size.
    """

    chunk_size = 2

    def __init__(self):
        self.sizes = []
        self.batches = {}

    def __call__(self, start, batch):
        self.sizes.append(len(batch))
        self.batches[start] = batch

    def results(self):
        collected = [result for start in sorted(self.batches)
                     for result in self.batches[start]]
        self.batches = {}
        return collected


def test_process_backend_chunked_results_match_serial():
    compiler = CellCompiler(system=SystemConfig())
    cells = [compiler.compile("TLIM-16", design)
             for design in ("original", "async_buf", "adapt_buf")]
    tasks = [ExecutionTask(cell, seed) for cell in cells for seed in SEEDS]
    serial = SerialBackend().execute(tasks)
    sink = _SinkOfTwo()
    with ProcessPoolBackend(max_workers=2) as backend:
        # With a sink, the results are the sink's: the call returns none.
        assert backend.execute(tasks, sink=sink) == []
        first = sink.results()
        # Second call brings a cell the pool initializer never saw, which
        # rebuilds the pool with the accumulated cell set.
        extra = compiler.compile("QFT-16", "async_buf")
        tasks_2 = tasks + [ExecutionTask(extra, seed) for seed in SEEDS]
        assert backend.execute(tasks_2, sink=sink) == []
        second = sink.results()
        # Without one, the ordered list comes back.
        assert backend.execute(tasks) == serial
    assert max(sink.sizes) == 2
    assert sum(sink.sizes) == len(tasks) + len(tasks_2)
    assert first == serial
    assert second[:len(tasks)] == serial
    assert second[len(tasks):] == SerialBackend().execute(
        [ExecutionTask(extra, seed) for seed in SEEDS]
    )


class _ForgetfulSink:
    """A sink that keeps nothing, and checks that nobody else does either.

    It holds a weak reference to every result it is handed.  On each call,
    every result of an earlier batch must be gone: the backend may keep no
    batch once the sink call that received it has returned.
    """

    chunk_size = 2

    def __init__(self):
        self.earlier = []
        self.batches = 0

    def __call__(self, start, batch):
        alive = [ref for ref in self.earlier if ref() is not None]
        assert not alive, f"{len(alive)} earlier results still alive"
        self.earlier.extend(weakref.ref(result) for result in batch)
        self.batches += 1


@pytest.mark.parametrize("backend_factory", [
    SerialBackend, lambda: ProcessPoolBackend(max_workers=2),
], ids=["serial", "process"])
def test_backends_keep_no_batch_they_handed_to_the_sink(backend_factory):
    compiler = CellCompiler(system=SystemConfig())
    cells = [compiler.compile("TLIM-16", design)
             for design in ("original", "async_buf", "ideal")]
    tasks = [ExecutionTask(cell, seed) for cell in cells
             for seed in range(1, 7)]
    sink = _ForgetfulSink()
    with backend_factory() as backend:
        assert backend.execute(tasks, sink=sink) == []
    assert sink.batches == len(tasks) // 2
    assert all(ref() is None for ref in sink.earlier)


def test_process_backend_cancels_queued_chunks_when_the_sink_raises(
        monkeypatch):
    submitted = []
    submit = ProcessPoolExecutor.submit

    def recording_submit(self, *args, **kwargs):
        future = submit(self, *args, **kwargs)
        submitted.append(future)
        return future

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)

    class SinkFailed(RuntimeError):
        pass

    class FailingSink:
        chunk_size = 2

        def __call__(self, start, batch):
            raise SinkFailed("commit failed")

    cell = CellCompiler(system=SystemConfig()).compile("TLIM-16", "sync_buf")
    tasks = [ExecutionTask(cell, seed) for seed in range(64)]
    with ProcessPoolBackend(max_workers=2) as backend:
        with pytest.raises(SinkFailed):
            backend.execute(tasks, sink=FailingSink())
        assert len(submitted) == 32
        # Chunks a worker already took still finish; the queue behind
        # them is dropped instead of delaying the pool's next call.
        assert sum(future.cancelled() for future in submitted) >= 16
        assert backend.execute(tasks[:4]) == SerialBackend().execute(tasks[:4])


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


# ---------------------------------------------------------------------------
# the per-gate path and what a batch shares
# ---------------------------------------------------------------------------
def test_batch_calls_acquire_per_remote_gate_and_estimate_per_run(
        monkeypatch):
    """Both are looked up on their classes at call time, once per unit."""
    from repro.entanglement import EntanglementService
    from repro.noise.fidelity import FidelityModel

    compiler = CellCompiler(system=SystemConfig())
    cells = [compiler.compile("QAOA-r2-16", design)
             for design in list_designs()]
    calls = {"acquire": 0, "estimate": 0}
    acquire = EntanglementService.acquire
    estimate = FidelityModel.estimate

    def counted_acquire(self, after):
        calls["acquire"] += 1
        return acquire(self, after)

    def counted_estimate(self, *args, **kwargs):
        calls["estimate"] += 1
        return estimate(self, *args, **kwargs)

    monkeypatch.setattr(EntanglementService, "acquire", counted_acquire)
    monkeypatch.setattr(FidelityModel, "estimate", counted_estimate)
    for cell in cells:
        before = dict(calls)
        results = cell.execute_batch(SEEDS)
        assert calls["acquire"] - before["acquire"] == \
            sum(result.num_remote for result in results)
        # The ideal design is deterministic: one estimate for the batch.
        assert calls["estimate"] - before["estimate"] == \
            (1 if cell.design.ideal else len(SEEDS))
    assert calls["acquire"] > 0


def test_entanglement_setup_is_built_once_per_batch(monkeypatch):
    from repro.hardware.architecture import DQCArchitecture

    cell = CellCompiler(system=SystemConfig()).compile("TLIM-16", "init_buf")
    calls = []
    for name in ("are_connected", "comm_pairs_between",
                 "buffer_capacity_between", "node_pairs"):
        original = getattr(DQCArchitecture, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(DQCArchitecture, name, counted)
    one = cell.execute_batch([1])
    per_batch = len(calls)
    assert per_batch > 0
    del calls[:]
    eight = cell.execute_batch(list(range(1, 9)))
    assert len(calls) == per_batch
    assert eight[0] == one[0]


def test_execute_leaves_the_cells_lookup_untouched():
    cell = CellCompiler(system=SystemConfig()).compile("QAOA-r2-16",
                                                       "adapt_buf")
    before = dict(vars(cell.lookup))
    variants = list(cell.lookup.variants)
    results = cell.execute_batch(SEEDS)
    cell.executor(seed=SEEDS[0]).run(cell.program,
                                     benchmark_name=cell.benchmark)
    after = vars(cell.lookup)
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)
    assert cell.lookup.variants == variants
    assert all(sum(result.variant_histogram.values()) > 0
               for result in results)


def test_threads_replaying_one_cell_get_the_serial_results():
    """A compiled cell is shared (artifact cache, service threads)."""
    import sys
    import threading

    cell = CellCompiler(system=SystemConfig()).compile("QFT-32", "adapt_buf")
    seeds = list(range(1, 41))
    expected = [result.variant_histogram
                for result in cell.execute_batch(seeds)]
    assert len({tuple(sorted(h.items())) for h in expected}) > 1
    histograms = {}

    def replay(slot):
        histograms[slot] = [result.variant_histogram
                            for result in cell.execute_batch(seeds)]

    threads = [threading.Thread(target=replay, args=(slot,), daemon=True)
               for slot in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert histograms == {slot: expected for slot in range(3)}
