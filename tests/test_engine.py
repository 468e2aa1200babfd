"""Tests for the compile-once / execute-many engine."""

from dataclasses import replace

import pytest

import repro.runtime.executor as executor_module
from repro.benchmarks import tlim_circuit
from repro.core import DQCSimulator, SystemConfig
from repro.engine import (
    ArtifactCache,
    CellCompiler,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    fingerprint,
    get_backend,
    list_backends,
    register_backend,
)
from repro.engine.backends import ExecutionTask
from repro.exceptions import ConfigurationError
from repro.study import Study

SMALL_SYSTEM = SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=4,
                            buffer_qubits_per_node=4)
SMALL_SEEDS = [5, 6, 7]


def small_study(**overrides) -> Study:
    """TLIM-32 x (original, adapt_buf) x seeds 5..7 on the small system."""
    kwargs = dict(benchmarks=["TLIM-32"], designs=["original", "adapt_buf"],
                  num_runs=len(SMALL_SEEDS), base_seed=SMALL_SEEDS[0],
                  system=SMALL_SYSTEM)
    kwargs.update(overrides)
    return Study(**kwargs)


def grid_tasks(study: Study):
    """The study's compiled cells and its flat cell-major task list."""
    cells = study.compile_plan()
    return cells, [ExecutionTask(cell, seed)
                   for cell in cells for seed in study.seeds()]


@pytest.fixture
def tlim_system() -> SystemConfig:
    return SMALL_SYSTEM


class CountingBackend(ExecutionBackend):
    """Serial backend that records how many tasks it was handed."""

    name = "counting"

    def __init__(self):
        self.task_log = []

    def execute(self, tasks, sink=None):
        tasks = list(tasks)
        self.task_log.append(len(tasks))
        results = SerialBackend().execute(tasks)
        if sink is not None:
            sink(0, results)
        return results


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_hit_miss_accounting(self):
        cache = ArtifactCache()
        assert cache.get("cell", "k") is None
        cache.put("cell", "k", "artifact")
        assert cache.get("cell", "k") == "artifact"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)
        assert cache.stats()["entries"] == 1

    def test_namespaces_are_disjoint(self):
        cache = ArtifactCache()
        cache.put("program", "k", "p")
        cache.put("cell", "k", "c")
        assert cache.get("program", "k") == "p"
        assert cache.get("cell", "k") == "c"
        assert cache.count("program") == 1
        assert cache.count() == 2

    def test_clear_resets_stats(self):
        cache = ArtifactCache()
        cache.put("cell", "a", 1)
        cache.get("cell", "a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_fingerprint_sensitivity(self):
        base = SystemConfig()
        same = SystemConfig()
        tweaked = replace(base, comm_qubits_per_node=5,
                          buffer_qubits_per_node=5)
        assert fingerprint(base) == fingerprint(same)
        assert fingerprint(base) != fingerprint(tweaked)

    def test_fingerprint_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            fingerprint(object())


# ----------------------------------------------------------------------
# compile stage
# ----------------------------------------------------------------------
class TestCellCompiler:
    def test_cell_cached_by_configuration(self, tlim_system):
        compiler = CellCompiler(system=tlim_system)
        first = compiler.compile("TLIM-32", "adapt_buf")
        second = compiler.compile("TLIM-32", "adapt_buf")
        assert first is second
        assert compiler.cache.hits >= 1

    def test_distinct_parameters_compile_distinct_cells(self, tlim_system):
        compiler = CellCompiler(system=tlim_system)
        base = compiler.compile("TLIM-32", "adapt_buf")
        other_design = compiler.compile("TLIM-32", "original")
        other_length = compiler.compile("TLIM-32", "adapt_buf", segment_length=3)
        assert base is not other_design
        assert base is not other_length
        assert other_length.lookup is not base.lookup
        # An override equal to the resolved default (2 here) is another
        # cell, but builds the same lookup table, so the cells share it.
        default_length = compiler.compile("TLIM-32", "adapt_buf",
                                          segment_length=2)
        assert default_length is not base
        assert default_length.lookup is base.lookup

    def test_adaptive_cell_carries_lookup(self, tlim_system):
        compiler = CellCompiler(system=tlim_system)
        adaptive = compiler.compile("TLIM-32", "adapt_buf")
        plain = compiler.compile("TLIM-32", "sync_buf")
        assert adaptive.lookup is not None
        assert plain.lookup is None

    def test_program_shared_across_designs(self, tlim_system):
        compiler = CellCompiler(system=tlim_system)
        a = compiler.compile("TLIM-32", "adapt_buf")
        b = compiler.compile("TLIM-32", "original")
        assert a.program is b.program

    def test_program_reused_across_comm_sweep_steps(self):
        cache = ArtifactCache()
        few = CellCompiler(
            system=SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=4,
                                buffer_qubits_per_node=4),
            cache=cache,
        )
        many = CellCompiler(
            system=SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=8,
                                buffer_qubits_per_node=8),
            cache=cache,
        )
        cell_few = few.compile("TLIM-32", "adapt_buf")
        cell_many = many.compile("TLIM-32", "adapt_buf")
        # The partitioned program survives the sweep step ...
        assert cell_few.program is cell_many.program
        assert cache.count("program") == 1
        # ... but the schedule lookup (segment length depends on the
        # communication-qubit count) is recompiled.
        assert cell_few.lookup is not cell_many.lookup
        assert cache.count("cell") == 2

    def test_anonymous_circuit_compiled_once(self, small_system):
        compiler = CellCompiler(system=small_system)
        circuit = tlim_circuit(12, num_steps=1)
        first = compiler.compile(circuit, "adapt_buf")
        second = compiler.compile(circuit, "adapt_buf")
        assert first is second

    def test_mutated_circuit_is_recompiled(self, small_system):
        # Regression: programs are keyed by gate content, so mutating a
        # circuit between calls must not replay the stale partition.
        compiler = CellCompiler(system=small_system)
        circuit = tlim_circuit(12, num_steps=1)
        before = compiler.compile(circuit, "original")
        circuit.cx(0, 1)
        after = compiler.compile(circuit, "original")
        assert after is not before
        assert after.program is not before.program
        assert after.program.circuit.num_gates == before.program.circuit.num_gates + 1

    def test_equal_circuits_share_a_program(self, small_system):
        compiler = CellCompiler(system=small_system)
        a = compiler.compile(tlim_circuit(12, num_steps=1), "original")
        b = compiler.compile(tlim_circuit(12, num_steps=1), "original")
        assert a is b

    def test_capacity_still_enforced(self, small_system):
        compiler = CellCompiler(system=small_system)
        with pytest.raises(ConfigurationError):
            compiler.resolve_program(tlim_circuit(40, num_steps=1))

    def test_invalid_circuit_type_rejected(self, small_system):
        compiler = CellCompiler(system=small_system)
        with pytest.raises(ConfigurationError):
            compiler.resolve_program(42)


class TestCompileOnce:
    def test_lookup_built_once_per_cell_regardless_of_num_runs(
            self, monkeypatch):
        calls = []
        original = executor_module.build_lookup_table

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "build_lookup_table", counting)
        results = small_study(designs=["adapt_buf"]).run()
        assert len(results) == len(SMALL_SEEDS)
        assert len(calls) == 1

    def test_designs_of_one_benchmark_build_each_artifact_once(
            self, monkeypatch):
        """Streams and lookups depend on the design only through its class.

        original, sync_buf and async_buf lower to one stream set; adapt_buf
        and init_buf share one lookup table and one stream set; ideal has
        its own streams: three lowerings and one lookup for six cells.
        """
        import repro.engine.compiler as compiler_module
        from repro.runtime import DesignExecutor, list_designs

        calls = {"lower_cell": 0, "build_lookup": 0}
        lower_cell = compiler_module.lower_cell
        build_lookup = DesignExecutor.build_lookup

        def counted_lower_cell(*args, **kwargs):
            calls["lower_cell"] += 1
            return lower_cell(*args, **kwargs)

        def counted_build_lookup(self, program):
            calls["build_lookup"] += 1
            return build_lookup(self, program)

        monkeypatch.setattr(compiler_module, "lower_cell", counted_lower_cell)
        monkeypatch.setattr(DesignExecutor, "build_lookup",
                            counted_build_lookup)
        compiler = CellCompiler(system=SMALL_SYSTEM, cache=ArtifactCache())
        cells = {design: compiler.compile("TLIM-32", design)
                 for design in list_designs()}
        assert len(cells) == 6
        assert calls == {"lower_cell": 3, "build_lookup": 1}
        assert (cells["original"].streams is cells["sync_buf"].streams
                is cells["async_buf"].streams)
        assert cells["adapt_buf"].streams is cells["init_buf"].streams
        assert cells["adapt_buf"].lookup is cells["init_buf"].lookup
        assert cells["ideal"].streams is not cells["original"].streams
        # A cell built alone replays exactly like its sharing twin.
        alone = CellCompiler(system=SMALL_SYSTEM, cache=ArtifactCache()
                             ).compile("TLIM-32", "init_buf")
        assert alone.streams is not cells["init_buf"].streams
        assert (alone.execute_batch(SMALL_SEEDS)
                == cells["init_buf"].execute_batch(SMALL_SEEDS))

    def test_simulator_reuses_lookup_across_seeds(self, monkeypatch):
        calls = []
        original = executor_module.build_lookup_table

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "build_lookup_table", counting)
        simulator = DQCSimulator(
            SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=4,
                         buffer_qubits_per_node=4)
        )
        for seed in (1, 2, 3):
            simulator.simulate("TLIM-32", design="adapt_buf", seed=seed)
        assert len(calls) == 1

    def test_variant_histogram_is_per_run(self):
        _, tasks = grid_tasks(small_study(designs=["adapt_buf"]))
        results = SerialBackend().execute(tasks)
        totals = [sum(r.variant_histogram.values()) for r in results]
        # Each run logs one decision per segment; a shared lookup must not
        # leak decisions from earlier seeds into later histograms.
        assert len(set(totals)) == 1 and totals[0] >= 1


# ----------------------------------------------------------------------
# execute stage
# ----------------------------------------------------------------------
class TestBackends:
    def test_get_backend_resolution(self):
        assert isinstance(get_backend(None), SerialBackend)
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process"), ProcessPoolBackend)
        instance = SerialBackend()
        assert get_backend(instance) is instance

    def test_get_backend_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_backend("quantum-cloud")
        with pytest.raises(ConfigurationError):
            get_backend(3.14)

    def test_register_backend(self):
        register_backend("counting-test", CountingBackend)
        assert "counting-test" in list_backends()
        assert isinstance(get_backend("counting-test"), CountingBackend)

    def test_process_backend_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(max_workers=0)

    def test_empty_task_list(self):
        assert SerialBackend().execute([]) == []
        with ProcessPoolBackend(max_workers=1) as backend:
            assert backend.execute([]) == []

    def test_serial_and_process_backends_are_deterministic(self):
        _, tasks = grid_tasks(small_study())
        serial_results = SerialBackend().execute(tasks)
        with ProcessPoolBackend(max_workers=2) as backend:
            process_results = backend.execute(tasks)
        assert len(serial_results) == len(process_results) == len(tasks)
        for serial_run, process_run in zip(serial_results, process_results):
            assert serial_run.seed == process_run.seed
            assert serial_run.makespan == process_run.makespan
            assert serial_run.fidelity == process_run.fidelity
            assert (serial_run.variant_histogram
                    == process_run.variant_histogram)


# ----------------------------------------------------------------------
# the study runs the grid
# ----------------------------------------------------------------------
class TestStudyExecution:
    def test_run_submits_whole_grid_as_one_batch(self):
        backend = CountingBackend()
        results = small_study(backend=backend).run()
        assert backend.task_log == [2 * len(SMALL_SEEDS)]
        assert results.benchmarks() == ["TLIM-32"]
        assert len(results) == 2 * len(SMALL_SEEDS)

    def test_results_grouped_in_seed_order(self):
        study = small_study()
        # Chunks of two seeds split every cell; records still come back
        # cell-major with seeds ascending within each cell.
        records = study.run(store_chunk_size=2).records
        assert [(r.design, r.seed) for r in records] == [
            (cell.design_name, seed)
            for cell in study.plan() for seed in SMALL_SEEDS
        ]

    def test_engine_matches_legacy_per_seed_simulation(self):
        records = small_study(designs=["adapt_buf"]).run().records
        cell = CellCompiler(system=SMALL_SYSTEM).compile("TLIM-32",
                                                         "adapt_buf")
        assert [r.seed for r in records] == SMALL_SEEDS
        for record in records:
            legacy = cell.executor(seed=record.seed).run(
                cell.program, benchmark_name=cell.benchmark)
            assert legacy.makespan == record.depth
            assert legacy.fidelity == record.fidelity

    def test_helper_closes_backends_it_created(self):
        class RecordingBackend(CountingBackend):
            closed = False

            def close(self):
                self.closed = True

        created = []

        def factory():
            backend = RecordingBackend()
            created.append(backend)
            return backend

        register_backend("recording-test", factory)
        study = small_study(designs=["ideal"], num_runs=1,
                            backend="recording-test")
        study.run()
        study.close()
        assert created and created[0].closed  # name -> study owns and closes

        provided = RecordingBackend()
        with small_study(designs=["ideal"], num_runs=1,
                         backend=provided) as study:
            study.run()
        assert not provided.closed  # caller-provided instance stays open


class TestSimulatorSatellites:
    def test_last_executor_none_before_simulate(self, small_system):
        simulator = DQCSimulator(system=small_system)
        assert simulator.last_executor is None

    def test_ideal_reference_before_simulate(self, small_system):
        # Regression: the ideal reference run used to rely on simulate()
        # having set last_executor; it must work on a fresh simulator.
        simulator = DQCSimulator(system=small_system)
        result = simulator.simulate(tlim_circuit(12, num_steps=1),
                                    design="ideal")
        assert result.design == "ideal"
        # Untraced runs replay through the batched core, not an executor.
        assert simulator.last_executor is None

    def test_traced_simulate_keeps_its_executor(self, small_system):
        simulator = DQCSimulator(system=small_system)
        circuit = tlim_circuit(12, num_steps=1)
        traced = simulator.simulate(circuit, design="async_buf", seed=4,
                                    collect_trace=True)
        executor = simulator.last_executor
        assert executor is not None and executor.last_trace is not None
        # The batched core and the traced reference agree per seed, and an
        # untraced call leaves the traced executor in place.
        assert simulator.simulate(circuit, design="async_buf",
                                  seed=4) == traced
        assert simulator.last_executor is executor
