"""Cross-seed vectorized core: equivalence with both scalar cores.

The contract of this PR: the :class:`VectorizedExecutor` simulates a whole
seed batch per gate-stream pass on 2-D numpy state, yet for identical
seeds produces :class:`ExecutionResult`s *bit-identical* to both the
trajectory-batched :class:`BatchedExecutor` and the legacy
:class:`DesignExecutor` — every field, including remote-gate records,
fidelity breakdowns, entanglement statistics, and adaptive variant
histograms.  These tests pin that contract across all six designs, across
topologies, through the adaptive per-seed group-split path, and through the
``REPRO_EXEC=vector`` mode knob.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import SystemConfig
from repro.engine import CellCompiler
from repro.runtime import (
    EntanglementDirectoryBatch,
    VectorizedExecutor,
    execute_vectorized,
    execution_mode,
    list_designs,
)
from repro.runtime.execmode import BATCHED, EXEC_ENV_VAR, VECTOR

SEEDS = [1, 2, 3]


def _assert_identical(reference_results, vector_results):
    assert len(reference_results) == len(vector_results)
    for reference, candidate in zip(reference_results, vector_results):
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
def test_vector_equals_batched_and_legacy_all_designs(benchmark_name, design):
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile(benchmark_name, design)
    vector = cell.execute_batch(SEEDS, mode="vector")
    _assert_identical(cell.execute_batch(SEEDS, mode="batched"), vector)
    _assert_identical(cell.execute_batch(SEEDS, mode="legacy"), vector)


@pytest.mark.parametrize("topology,partition_method", [
    ("all_to_all", "multilevel"),
    ("ring", "multilevel"),
    ("line", "contiguous"),
])
def test_vector_equals_batched_across_topologies(topology, partition_method):
    system = SystemConfig(num_nodes=4, data_qubits_per_node=8,
                          comm_qubits_per_node=8, buffer_qubits_per_node=8,
                          topology=topology, partition_method=partition_method)
    compiler = CellCompiler(system=system)
    for design in ("original", "async_buf", "adapt_buf"):
        cell = compiler.compile("TLIM-32", design)
        _assert_identical(cell.execute_batch(SEEDS, mode="batched"),
                          cell.execute_batch(SEEDS, mode="vector"))


# ---------------------------------------------------------------------------
# the adaptive group-split path
# ---------------------------------------------------------------------------
def test_vector_adaptive_seeds_genuinely_diverge():
    """The equivalence only means something if seeds pick different variants.

    On the 4-node system the adaptive design's per-seed lookup decisions
    split the batch into divergent variant groups, exercising the
    vectorized core's group-replay path rather than the uniform fast path.
    """
    system = SystemConfig(num_nodes=4, data_qubits_per_node=8,
                          comm_qubits_per_node=8, buffer_qubits_per_node=8)
    compiler = CellCompiler(system=system)
    cell = compiler.compile("TLIM-32", "adapt_buf")
    seeds = list(range(1, 13))
    vector = cell.execute_batch(seeds, mode="vector")
    histograms = {tuple(sorted(r.variant_histogram.items())) for r in vector}
    assert len(histograms) > 1
    _assert_identical(cell.execute_batch(seeds, mode="batched"), vector)
    _assert_identical(cell.execute_batch(seeds, mode="legacy"), vector)


def test_vector_adaptive_keeps_shared_lookup_log_clean():
    """Group replay must not leak per-seed decisions into the shared table."""
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QAOA-r2-16", "adapt_buf")
    assert cell.lookup is not None
    cell.execute_batch(SEEDS, mode="vector")
    assert cell.lookup.decisions == []


# ---------------------------------------------------------------------------
# standalone executor surface
# ---------------------------------------------------------------------------
def test_vector_standalone_without_prebuilt_streams():
    """VectorizedExecutor lowers on the fly when no compile artifacts exist."""
    from repro.benchmarks.registry import build_benchmark
    from repro.partitioning.assigner import distribute_circuit
    from repro.runtime import BatchedExecutor

    system = SystemConfig()
    architecture = system.build_architecture()
    program = distribute_circuit(build_benchmark("TLIM-16"), num_nodes=2)
    for design in ("async_buf", "adapt_buf", "ideal"):
        batched = BatchedExecutor(architecture, design).run_batch(
            program, SEEDS)
        vector = VectorizedExecutor(architecture, design).run_batch(
            program, SEEDS)
        _assert_identical(batched, vector)


def test_execute_vectorized_convenience():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "original")
    results = execute_vectorized(
        cell.program, cell.architecture, cell.design, SEEDS)
    _assert_identical(cell.execute_batch(SEEDS, mode="batched"), results)


def test_vector_empty_seed_batch():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "original")
    assert cell.execute_batch([], mode="vector") == []


def test_vector_single_seed():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QAOA-r2-16", "sync_buf")
    _assert_identical(cell.execute_batch([7], mode="batched"),
                      cell.execute_batch([7], mode="vector"))


# ---------------------------------------------------------------------------
# mode selection
# ---------------------------------------------------------------------------
def test_execution_mode_env_selects_vector(monkeypatch):
    monkeypatch.setenv(EXEC_ENV_VAR, "vector")
    assert execution_mode() == VECTOR
    monkeypatch.delenv(EXEC_ENV_VAR)
    assert execution_mode() == BATCHED
    assert execution_mode("vector") == VECTOR


def test_execute_batch_honours_vector_env(monkeypatch):
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "async_buf")
    expected = cell.execute_batch(SEEDS, mode="batched")
    monkeypatch.setenv(EXEC_ENV_VAR, "vector")
    _assert_identical(expected, cell.execute_batch(SEEDS))


# ---------------------------------------------------------------------------
# the batched entanglement directory
# ---------------------------------------------------------------------------
def test_directory_batch_matches_scalar_directories():
    from repro.runtime.resources import EntanglementDirectory

    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "async_buf")
    pair_list = cell.streams.pair_list
    assert pair_list, "TLIM-16 must produce at least one remote pair"
    spec = cell.design
    batch = EntanglementDirectoryBatch(
        cell.architecture, SEEDS, pair_list,
        attempt_policy=spec.attempt_policy, use_buffer=spec.use_buffer,
        prefill=spec.prefill_buffers, buffer_cutoff=spec.buffer_cutoff,
        async_groups=spec.async_groups,
    )
    scalars = [
        EntanglementDirectory(
            cell.architecture, seed=seed,
            attempt_policy=spec.attempt_policy, use_buffer=spec.use_buffer,
            prefill=spec.prefill_buffers, buffer_cutoff=spec.buffer_cutoff,
            async_groups=spec.async_groups,
        )
        for seed in SEEDS
    ]
    starts, created, fidelities = batch.acquire_batch(
        0, [0.0 for _ in SEEDS])
    node_a, node_b = pair_list[0]
    for row, scalar in enumerate(scalars):
        start, _, fidelity = scalar.service(node_a, node_b).acquire(0.0)
        assert starts[row] == start
        assert fidelities[row] == fidelity


def test_directory_batch_rejects_empty_seeds():
    from repro.exceptions import RuntimeSimulationError

    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "original")
    with pytest.raises(RuntimeSimulationError):
        EntanglementDirectoryBatch(cell.architecture, [],
                                   cell.streams.pair_list)
