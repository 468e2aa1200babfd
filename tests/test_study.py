"""Tests for the declarative Study API (grids, plans, flat results)."""

import json

import pytest

from repro.analysis import comparison_report
from repro.core import SystemConfig
from repro.engine import ArtifactCache
from repro.exceptions import ConfigurationError, SpecValidationError
from repro.runtime import get_design
from repro.study import Axis, ExecutionPlan, GridSpec, ResultSet, RunRecord, Study
from repro.study.plan import PlanCell

SMALL_SYSTEM = SystemConfig(
    data_qubits_per_node=16, comm_qubits_per_node=4, buffer_qubits_per_node=4
)


# ----------------------------------------------------------------------
# axes and grids
# ----------------------------------------------------------------------
class TestAxis:
    def test_single_field_points(self):
        axis = Axis("epr_success_probability", [0.2, 0.4])
        assert axis.size == 2
        assert list(axis.points()) == [
            {"epr_success_probability": 0.2},
            {"epr_success_probability": 0.4},
        ]

    def test_zipped_fields_points(self):
        axis = Axis(("comm_qubits_per_node", "buffer_qubits_per_node"),
                    [(4, 4), (8, 8)])
        assert list(axis.points())[1] == {
            "comm_qubits_per_node": 8, "buffer_qubits_per_node": 8,
        }

    def test_zipped_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Axis(("a", "b"), [(1, 2), (3,)])

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            Axis("seed", [])

    def test_string_values_rejected(self):
        # A bare string would iterate character by character.
        with pytest.raises(ConfigurationError):
            Axis("benchmark", "TLIM-32")

    def test_spec_round_trip(self):
        axis = Axis(("a", "b"), [(1, 2), (3, 4)])
        rebuilt = Axis.from_spec(axis.to_spec())
        assert rebuilt == axis


class TestGridSpec:
    def test_cartesian_size_and_order(self):
        grid = GridSpec([Axis("a", [1, 2]), Axis("b", ["x", "y", "z"])])
        points = list(grid.points())
        assert grid.size == len(points) == 6
        # First axis is the outermost loop.
        assert points[0] == {"a": 1, "b": "x"}
        assert points[3] == {"a": 2, "b": "x"}

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec([Axis("a", [1]), Axis(("a", "b"), [(1, 2)])])

    def test_axis_lookup(self):
        grid = GridSpec([Axis(("a", "b"), [(1, 2)])])
        assert grid.axis("b").fields == ("a", "b")
        with pytest.raises(ConfigurationError):
            grid.axis("c")


# ----------------------------------------------------------------------
# study construction and plans
# ----------------------------------------------------------------------
class TestStudyPlan:
    def test_plan_is_lazy_and_counts_tasks(self):
        study = Study(benchmarks=["TLIM-32"], designs=["ideal", "original"],
                      num_runs=3, system=SMALL_SYSTEM)
        plan = study.plan()
        assert isinstance(plan, ExecutionPlan)
        assert not plan.expanded
        assert len(plan) == 2
        assert plan.expanded
        assert plan.num_tasks == 6

    def test_plan_deduplicates_repeated_points(self):
        study = Study(benchmarks=["TLIM-32"], designs=["ideal"],
                      axes={"comm_qubits_per_node": [4, 4, 8]},
                      num_runs=1, system=SMALL_SYSTEM)
        plan = study.plan()
        assert len(plan) == 2
        assert plan.duplicates_dropped == 1

    def test_system_axes_produce_variants(self):
        study = Study(benchmarks=["TLIM-32"], designs=["ideal"],
                      axes={"epr_success_probability": [0.2, 0.8]},
                      num_runs=1, system=SMALL_SYSTEM)
        systems = study.plan().systems()
        assert [s.epr_success_probability for s in systems] == [0.2, 0.8]
        # Unvaried fields come from the base system.
        assert all(s.comm_qubits_per_node == 4 for s in systems)

    def test_seed_axis_overrides_num_runs(self):
        study = Study(benchmarks=["TLIM-32"], designs=["ideal"],
                      axes={"seed": [7, 9]}, num_runs=50, system=SMALL_SYSTEM)
        assert study.seeds() == [7, 9]
        assert study.plan().num_tasks == 2

    def test_negative_base_seed_rejected_at_construction(self):
        # Before any chunk runs or commits: a negative seed used to fail
        # only once the first stochastic cell reached numpy, after the
        # ideal chunks had committed.
        for seed in (-5000, -1):
            with pytest.raises(ConfigurationError, match="base_seed"):
                Study(benchmarks="TLIM-32", designs=["ideal", "original"],
                      num_runs=2, base_seed=seed)
        # Run counts and seeds are integers, never silently truncated.
        for key in ("num_runs", "base_seed", "partition_seed"):
            for value in (2.5, True, "3"):
                with pytest.raises(ConfigurationError, match=key):
                    Study(benchmarks="TLIM-32", designs=["ideal"],
                          **{key: value})
        assert Study(benchmarks="TLIM-32", designs=["ideal"],
                     partition_seed=-3).partition_seed == -3

    def test_negative_seed_axis_value_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            Study(benchmarks=["TLIM-32"], designs=["original"],
                  axes={"seed": [-7000, 3]})

    def test_negative_seeds_in_spec_name_their_field(self):
        base = {"benchmarks": ["TLIM-32"], "designs": ["original"]}
        with pytest.raises(SpecValidationError) as excinfo:
            Study.from_spec({**base, "base_seed": -5000})
        assert excinfo.value.field == "base_seed"
        with pytest.raises(SpecValidationError) as excinfo:
            Study.from_spec({**base, "axes": [
                {"fields": ["seed"], "values": [-7000, 3]}]})
        assert excinfo.value.field == "axes"
        for key in ("num_runs", "base_seed", "partition_seed"):
            for value in (2.5, True, "3"):
                with pytest.raises(SpecValidationError) as excinfo:
                    Study.from_spec({**base, key: value})
                assert excinfo.value.field == key

    def test_system_counts_must_be_integers(self):
        # Unchecked, a fractional count fails mid-run with a raw TypeError
        # or runs a 4.5-qubit buffer, and a bool runs as one qubit.
        base = {"benchmarks": ["TLIM-32"], "designs": ["ideal", "original"]}
        for key, value in (("comm_qubits_per_node", 2.5),
                           ("buffer_qubits_per_node", 4.5),
                           ("comm_qubits_per_node", True),
                           ("num_nodes", 2.0),
                           ("data_qubits_per_node", "16")):
            with pytest.raises(ConfigurationError, match=key):
                SystemConfig(**{key: value})
            with pytest.raises(SpecValidationError) as excinfo:
                Study.from_spec({**base, "system": {key: value}})
            assert excinfo.value.field == f"system.{key}"
        # Other system errors still name the system as a whole.
        with pytest.raises(SpecValidationError) as excinfo:
            Study.from_spec({**base, "system": {"num_nodes": 1}})
        assert excinfo.value.field == "system"

    def test_unknown_axis_field_rejected(self):
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"], axes={"warp_factor": [9]})

    def test_zipped_seed_axis_rejected(self):
        # Silently dropping either field would corrupt results; refuse.
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"],
                  axes=[Axis(("seed", "segment_length"), [(101, 2)])])

    def test_duplicate_seed_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"],
                  axes=[Axis("seed", [1]), Axis("seed", [2, 3])])

    def test_system_axis_values_type_checked(self):
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"],
                  axes={"comm_qubits_per_node": ["abc"]})
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"],
                  axes={"epr_success_probability": [True]})

    def test_executor_axis_values_type_checked(self):
        # Bad values fail at construction, not mid-execution.
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"],
                  axes={"adaptive_policy": ["aggressive"]})
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"], axes={"segment_length": [2.5]})
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"], axes={"seed": [1, "two"]})

    def test_zipped_adaptive_policy_axis_spec_round_trip(self):
        from repro.scheduling import AdaptivePolicy

        study = Study(benchmarks=["TLIM-32"], designs=["adapt_buf"],
                      axes=[Axis(("segment_length", "adaptive_policy"),
                                 [(2, AdaptivePolicy()),
                                  (4, AdaptivePolicy(asap_threshold=0))])],
                      num_runs=1, system=SMALL_SYSTEM)
        spec = json.loads(json.dumps(study.to_spec()))
        assert Study.from_spec(spec).run().records == study.run().records

    def test_comparison_rejects_mixed_system_variants(self):
        study = Study(benchmarks=["TLIM-32"], designs=["ideal"],
                      axes={"comm_qubits_per_node": [4, 8]},
                      num_runs=1, system=SMALL_SYSTEM)
        results = study.run()
        # Averaging across hardware variants would be meaningless.
        with pytest.raises(ConfigurationError):
            comparison_report(results)
        by_count = results.group_by("comm_qubits_per_node")
        assert sorted(by_count) == [4, 8]
        for panel in by_count.values():
            assert "ideal" in comparison_report(panel)

    def test_benchmarks_required(self):
        with pytest.raises(ConfigurationError):
            Study(designs=["ideal"])

    def test_benchmark_axis_alternative(self):
        study = Study(axes=[Axis("benchmark", ["TLIM-32", "QFT-32"])],
                      designs=["ideal"], system=SMALL_SYSTEM)
        assert study.grid.size == 2

    def test_designs_default_resolved_at_run_time(self):
        from repro.runtime.designs import DESIGNS, DESIGN_ORDER

        study = Study(benchmarks=["TLIM-32"], system=SMALL_SYSTEM)
        spec = get_design("ideal").with_overrides(name="late_ideal")
        DESIGNS["late_ideal"] = spec
        DESIGN_ORDER.append("late_ideal")
        try:
            assert "late_ideal" in [
                cell.design_name for cell in study.plan()
            ]
        finally:
            del DESIGNS["late_ideal"]
            DESIGN_ORDER.remove("late_ideal")


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
class TestStudyRun:
    @pytest.fixture(scope="class")
    def grid_results(self):
        study = Study(benchmarks=["TLIM-32"],
                      designs=["async_buf", "adapt_buf", "ideal"],
                      num_runs=2, base_seed=3, system=SMALL_SYSTEM)
        return study.run()

    def test_record_per_run(self, grid_results):
        assert len(grid_results) == 3 * 2
        assert grid_results.designs() == ["async_buf", "adapt_buf", "ideal"]
        seeds = {r.seed for r in grid_results}
        assert seeds == {3, 4}

    def test_records_flat_and_queryable(self, grid_results):
        adapt = grid_results.filter(design="adapt_buf")
        assert len(adapt) == 2
        assert all(r.depth > 0 for r in adapt)
        stats = grid_results.aggregate("depth", by=["design"])
        assert stats["ideal"].mean <= stats["async_buf"].mean

    def test_metadata_describes_study(self, grid_results):
        meta = grid_results.metadata
        assert meta["benchmarks"] == ["TLIM-32"]
        assert meta["num_runs"] == 2
        assert meta["system"]["comm_qubits_per_node"] == 4

    def test_matches_direct_engine_execution(self):
        """Study results equal the compiled cell run by run (same seeds)."""
        study = Study(benchmarks=["TLIM-32"], designs=["async_buf"],
                      num_runs=2, base_seed=3, system=SMALL_SYSTEM)
        [cell] = study.compile_plan()
        engine_results = cell.execute_batch(study.seeds())
        records = study.run().records
        assert [r.seed for r in records] == [r.seed for r in engine_results]
        assert [r.depth for r in records] == [
            r.makespan for r in engine_results
        ]
        assert [r.fidelity for r in records] == [
            r.fidelity for r in engine_results
        ]

    def test_two_axis_grid_shares_partition_cache(self):
        cache = ArtifactCache()
        study = Study(benchmarks=["TLIM-32"], designs=["adapt_buf", "ideal"],
                      axes={"epr_success_probability": [0.2, 0.4, 0.8]},
                      num_runs=1, system=SMALL_SYSTEM, cache=cache)
        results = study.run()
        assert len(results) == 6
        # One partitioned program serves every psucc variant.
        assert cache.count("program") == 1
        depth = results.aggregate(
            "depth", by=["epr_success_probability", "design"])
        assert sorted({p for p, _ in depth}) == [0.2, 0.4, 0.8]
        depths = [depth[(p, "adapt_buf")].mean for p in (0.2, 0.4, 0.8)]
        assert depths[2] <= depths[0]  # better links, shorter circuits

    def test_executor_knob_axes(self):
        study = Study(benchmarks=["TLIM-32"], designs=["adapt_buf"],
                      axes={"segment_length": [2, 8]}, num_runs=1,
                      system=SMALL_SYSTEM)
        results = study.run()
        assert len(results) == 2
        assert results.values("segment_length") == [2, 8]

    def test_adaptive_policy_axis_records_stay_groupable(self):
        from repro.scheduling import AdaptivePolicy

        policies = [AdaptivePolicy(), AdaptivePolicy(asap_threshold=0)]
        study = Study(benchmarks=["TLIM-32"], designs=["adapt_buf"],
                      axes={"adaptive_policy": policies}, num_runs=1,
                      system=SMALL_SYSTEM)
        results = study.run()
        # Non-primitive coordinates become stable repr tokens, so the set
        # can be grouped/aggregated and still round-trips through JSON.
        depth = results.aggregate("depth", by=["adaptive_policy"])
        assert sorted(depth) == sorted(repr(p) for p in policies)
        assert ResultSet.from_json(results.to_json()) == results

    def test_design_spec_values(self):
        base = get_design("async_buf")
        variants = [base.with_overrides(async_groups=g,
                                        name=f"async_buf[g={g}]")
                    for g in (1, 4)]
        study = Study(benchmarks=["TLIM-32"], designs=variants,
                      num_runs=1, system=SMALL_SYSTEM)
        results = study.run()
        assert results.designs() == ["async_buf[g=1]", "async_buf[g=4]"]

    def test_distinct_design_variants_need_distinct_names(self):
        base = get_design("async_buf")
        clashing = [base.with_overrides(async_groups=2),
                    base.with_overrides(async_groups=5)]
        study = Study(benchmarks=["TLIM-32"], designs=clashing,
                      num_runs=1, system=SMALL_SYSTEM)
        # Both variants would record as 'async_buf' and silently pool.
        with pytest.raises(ConfigurationError):
            study.plan()

    def test_aggregate_accepts_bare_string_key(self):
        study = Study(benchmarks=["TLIM-32"], designs=["ideal", "original"],
                      num_runs=1, system=SMALL_SYSTEM)
        results = study.run()
        assert sorted(results.aggregate("depth", by="design")) == [
            "ideal", "original",
        ]

    def test_adaptive_policy_axis_survives_spec_round_trip(self):
        from repro.scheduling import AdaptivePolicy

        study = Study(benchmarks=["TLIM-32"], designs=["adapt_buf"],
                      axes={"adaptive_policy": [
                          AdaptivePolicy(asap_threshold=0)]},
                      num_runs=1, system=SMALL_SYSTEM)
        spec = json.loads(json.dumps(study.to_spec()))
        rebuilt = Study.from_spec(spec)
        assert rebuilt.run().records == study.run().records

    def test_design_override_survives_spec_round_trip(self):
        override = get_design("async_buf").with_overrides(
            async_groups=1, name="async_buf[g=1]")
        study = Study(benchmarks=["TLIM-32"], designs=[override],
                      num_runs=1, system=SMALL_SYSTEM)
        spec = json.loads(json.dumps(study.to_spec()))
        rebuilt = Study.from_spec(spec)
        # The serialised spec re-runs the override, not the base design.
        assert rebuilt._design_values() == [override]
        assert rebuilt.run().records == study.run().records

    def test_spec_round_trip_runs(self):
        study = Study(benchmarks=["TLIM-32"], designs=["ideal"],
                      axes={"comm_qubits_per_node": [4, 8]},
                      num_runs=1, system=SMALL_SYSTEM, name="round-trip")
        spec = json.loads(json.dumps(study.to_spec()))
        rebuilt = Study.from_spec(spec)
        assert rebuilt.name == "round-trip"
        assert rebuilt.grid.size == study.grid.size
        assert rebuilt.system == study.system
        assert rebuilt.run().records == study.run().records


# ----------------------------------------------------------------------
# result set serialisation (satellite)
# ----------------------------------------------------------------------
def test_run_keeps_no_result_of_a_committed_chunk(tmp_path, monkeypatch):
    """Execute holds O(chunk) results: each dies once its chunk commits.

    Every ``execute_batch`` result is watched through a weak reference;
    when a chunk's progress event fires, no result of an earlier chunk may
    still be alive anywhere in the backend or the sink.
    """
    import weakref

    from repro.engine.compiler import CompiledCell

    batches = []
    execute_batch = CompiledCell.execute_batch

    def watched(self, seeds, **kwargs):
        batch = execute_batch(self, seeds, **kwargs)
        batches.append([weakref.ref(result) for result in batch])
        return batch

    monkeypatch.setattr(CompiledCell, "execute_batch", watched)
    alive_at_events = []

    def progress(event):
        alive_at_events.append(sum(ref() is not None
                                   for batch in batches[:-1]
                                   for ref in batch))

    study = Study(benchmarks=["TLIM-16", "QFT-16"], num_runs=3,
                  backend="serial")
    results = study.run(store=tmp_path / "store", store_chunk_size=2,
                        progress=progress)
    assert len(results) == 2 * 6 * 3
    # 2 benchmarks x 6 designs x chunks of seeds (0, 1) and (2,).
    assert len(batches) == 24
    assert len(alive_at_events) == 1 + 24
    assert alive_at_events == [0] * len(alive_at_events)


class TestResultSetSerialization:
    @pytest.fixture(scope="class")
    def sweep_results(self):
        study = Study(
            benchmarks=["TLIM-32"], designs=["async_buf", "ideal"],
            axes=[Axis(("comm_qubits_per_node", "buffer_qubits_per_node"),
                       [(4, 4), (8, 8)])],
            num_runs=2, system=SMALL_SYSTEM,
        )
        return study.run()

    def test_json_round_trip_equality(self, sweep_results):
        text = sweep_results.to_json()
        reloaded = ResultSet.from_json(text)
        assert reloaded == sweep_results
        assert reloaded.records == sweep_results.records
        assert reloaded.metadata == sweep_results.metadata

    def test_json_file_round_trip(self, sweep_results, tmp_path):
        path = tmp_path / "results.json"
        sweep_results.to_json(path)
        assert ResultSet.load(path) == sweep_results

    def test_csv_column_stability(self, sweep_results):
        lines = sweep_results.to_csv().strip().splitlines()
        assert lines[0] == (
            "benchmark,design,seed,buffer_qubits_per_node,"
            "comm_qubits_per_node,depth,fidelity,num_remote,"
            "mean_remote_wait,mean_link_fidelity,epr_generated,epr_wasted"
        )
        assert len(lines) == 1 + len(sweep_results)

    def test_flat_records_merge_params(self, sweep_results):
        rows = sweep_results.to_records()
        assert rows[0]["comm_qubits_per_node"] == 4
        assert set(rows[0]) >= {"benchmark", "design", "seed", "depth"}

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ResultSet.from_json("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            ResultSet.from_json(json.dumps({"schema": 99, "records": []}))

    def test_group_by_and_filter(self, sweep_results):
        by_count = sweep_results.group_by("comm_qubits_per_node")
        assert sorted(by_count) == [4, 8]
        assert all(len(subset) == 4 for subset in by_count.values())
        ideal8 = sweep_results.filter(design="ideal",
                                      comm_qubits_per_node=8)
        assert len(ideal8) == 2

    def test_unknown_column_rejected(self, sweep_results):
        with pytest.raises(KeyError):
            sweep_results.records[0].get("nonsense")


# ----------------------------------------------------------------------
# config satellites
# ----------------------------------------------------------------------
class TestConfigSatellites:
    def test_empty_designs_tuple_still_rejected(self):
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"], designs=[]).plan()

    def test_single_node_system_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_nodes=1)

    def test_multi_node_system_accepted(self):
        system = SystemConfig(num_nodes=3)
        assert system.build_architecture().num_nodes == 3


# ----------------------------------------------------------------------
# partitioner / topology axes (registry redesign)
# ----------------------------------------------------------------------
class TestPartitionerTopologyAxes:
    def test_partition_method_axis_runs_and_labels_records(self):
        study = Study(benchmarks="QFT-16", designs=["adapt_buf"],
                      axes={"partition_method": ["multilevel", "spectral"]},
                      num_runs=1, system=SMALL_SYSTEM)
        results = study.run()
        study.close()
        assert len(results) == 2
        assert sorted(results.group_by("partition_method")) == [
            "multilevel", "spectral"]

    def test_topology_axis_produces_system_variants(self):
        study = Study(benchmarks="TLIM-32", designs=["ideal"],
                      axes={"topology": ["all_to_all", "ring"]},
                      num_runs=1, system=SMALL_SYSTEM)
        plan = study.plan()
        assert sorted(s.topology for s in plan.systems()) == [
            "all_to_all", "ring"]

    def test_partition_method_argument_applied_to_system(self):
        study = Study(benchmarks="TLIM-32", designs=["ideal"], num_runs=1,
                      partition_method="contiguous", system=SMALL_SYSTEM)
        assert study.system.partition_method == "contiguous"
        assert study.partition_method == "contiguous"

    def test_shared_cache_partitions_once_across_topologies(self):
        cache = ArtifactCache()
        study = Study(benchmarks="TLIM-32", designs=["ideal"],
                      axes={"topology": ["all_to_all", "line"]},
                      num_runs=1, system=SystemConfig(
                          partition_method="contiguous"),
                      cache=cache)
        study.run()
        study.close()
        # One partitioned program serves both topology variants.
        assert cache.count("program") == 1

    def test_spec_round_trip_with_registry_axes(self):
        study = Study(benchmarks="QFT-16", designs=["adapt_buf"],
                      axes={"partition_method": ["multilevel", "spectral"]},
                      num_runs=1, system=SMALL_SYSTEM)
        spec = json.loads(json.dumps(study.to_spec()))
        assert spec["system"]["partition_method"] == "multilevel"
        assert spec["system"]["topology"] == "all_to_all"
        rebuilt = Study.from_spec(spec)
        first, second = study.run(), rebuilt.run()
        study.close()
        rebuilt.close()
        assert first.records == second.records

    def test_unknown_axis_value_fails_at_construction(self):
        with pytest.raises(ConfigurationError,
                           match="invalid 'partition_method'"):
            Study(benchmarks="TLIM-32", num_runs=1,
                  axes={"partition_method": ["multilevel", "metis"]})
        with pytest.raises(ConfigurationError, match="invalid 'topology'"):
            Study(benchmarks="TLIM-32", num_runs=1,
                  axes={"topology": ["torus"]})

    def test_non_string_registry_value_rejected(self):
        with pytest.raises(ConfigurationError, match="registry names"):
            Study(benchmarks="TLIM-32", num_runs=1,
                  axes={"topology": [3]})


class TestAxisErrorMessages:
    def test_unknown_field_lists_sweepable_axes(self):
        with pytest.raises(ConfigurationError) as excinfo:
            Study(benchmarks="TLIM-32", num_runs=1,
                  axes={"warp_factor": [1, 2]})
        message = str(excinfo.value)
        assert "unknown axis field 'warp_factor'" in message
        assert "comm_qubits_per_node" in message  # numeric fields listed
        assert "partition_method" in message      # string fields listed
        assert "segment_length" in message        # reserved axes listed

    def test_non_scalar_system_field_named_explicitly(self):
        with pytest.raises(ConfigurationError, match="not a scalar"):
            Study(benchmarks="TLIM-32", num_runs=1,
                  axes={"gate_times": [1, 2]})

    def test_non_numeric_value_for_numeric_field(self):
        with pytest.raises(ConfigurationError, match="must be numbers"):
            Study(benchmarks="TLIM-32", num_runs=1,
                  axes={"comm_qubits_per_node": ["lots"]})
