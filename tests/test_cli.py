"""Tests for the ``python -m repro`` command line."""

import json

import pytest

from repro.study import ResultSet
from repro.study.cli import main, parse_axis
from repro.study.grid import Axis

SMALL_SYSTEM_FLAGS = [
    "--data-qubits", "16", "--comm-qubits", "4", "--buffer-qubits", "4",
]


class TestParseAxis:
    def test_single_field(self):
        axis = parse_axis("epr_success_probability=0.2,0.4")
        assert axis == Axis("epr_success_probability", [0.2, 0.4])

    def test_zipped_fields(self):
        axis = parse_axis("comm_qubits_per_node,buffer_qubits_per_node=4:4,8:8")
        assert axis.fields == ("comm_qubits_per_node", "buffer_qubits_per_node")
        assert axis.values == ((4, 4), (8, 8))

    def test_non_numeric_values_stay_strings(self):
        axis = parse_axis("benchmark=TLIM-32,QFT-32")
        assert axis.values == ("TLIM-32", "QFT-32")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_axis("no-equals-sign")
        with pytest.raises(ValueError):
            parse_axis("a,b=1:2,3")


class TestRunCommand:
    def test_run_writes_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "rs.json"
        code = main(["run", "--benchmark", "TLIM-32", "--design", "ideal",
                     "--runs", "2", *SMALL_SYSTEM_FLAGS,
                     "--out", str(out)])
        assert code == 0
        reloaded = ResultSet.load(out)
        assert len(reloaded) == 2
        assert reloaded.benchmarks() == ["TLIM-32"]
        assert "mean depth" in capsys.readouterr().out

    def test_run_family_benchmark(self, tmp_path):
        out = tmp_path / "rs.json"
        code = main(["run", "--benchmark", "QAOA-r4-16", "--design", "ideal",
                     "--runs", "1", "--quiet", "--out", str(out)])
        assert code == 0
        assert ResultSet.load(out).benchmarks() == ["QAOA-r4-16"]

    def test_run_csv_output(self, tmp_path):
        out = tmp_path / "rs.csv"
        main(["run", "--benchmark", "TLIM-32", "--design", "ideal",
              "--runs", "1", "--quiet", *SMALL_SYSTEM_FLAGS,
              "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header.startswith("benchmark,design,seed,")

    def test_unknown_benchmark_exits_nonzero(self, capsys):
        code = main(["run", "--benchmark", "NOPE-1", "--runs", "1"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_negative_seed_exits_with_typed_error(self, capsys):
        code = main(["run", "--benchmark", "TLIM-32", "--design", "original",
                     "--runs", "1", "--seed", "-5000", *SMALL_SYSTEM_FLAGS])
        assert code == 2
        assert "non-negative integer, got -5000" in capsys.readouterr().err

    def test_missing_benchmark_exits_nonzero(self, capsys):
        code = main(["run", "--runs", "1"])
        assert code == 2
        assert "no benchmark" in capsys.readouterr().err


class TestSweepCommand:
    def test_axis_sweep(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--benchmark", "TLIM-32", "--design", "ideal",
                     "--design", "adapt_buf", "--runs", "1",
                     *SMALL_SYSTEM_FLAGS,
                     "--axis",
                     "comm_qubits_per_node,buffer_qubits_per_node=4:4,8:8",
                     "--quiet", "--out", str(out)])
        assert code == 0
        results = ResultSet.load(out)
        assert len(results) == 4
        assert sorted(results.group_by("comm_qubits_per_node")) == [4, 8]

    def test_spec_file_sweep(self, tmp_path):
        spec = {
            "benchmarks": ["TLIM-32"],
            "designs": ["ideal"],
            "num_runs": 1,
            "system": {"data_qubits_per_node": 16,
                       "comm_qubits_per_node": 4,
                       "buffer_qubits_per_node": 4},
            "axes": [{"fields": ["epr_success_probability"],
                      "values": [0.2, 0.8]}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rs.json"
        code = main(["sweep", "--spec", str(spec_path), "--quiet",
                     "--out", str(out)])
        assert code == 0
        results = ResultSet.load(out)
        assert results.values("epr_success_probability") == [0.2, 0.8]

    def test_spec_with_benchmark_axis(self, tmp_path):
        spec = {
            "designs": ["ideal"],
            "num_runs": 1,
            "system": {"data_qubits_per_node": 16,
                       "comm_qubits_per_node": 4,
                       "buffer_qubits_per_node": 4},
            "axes": [{"fields": ["benchmark"],
                      "values": ["TLIM-32", "QFT-32"]}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rs.json"
        assert main(["sweep", "--spec", str(spec_path), "--quiet",
                     "--out", str(out)]) == 0
        assert ResultSet.load(out).benchmarks() == ["TLIM-32", "QFT-32"]

    def test_benchmark_flag_replaces_spec_benchmark_axis(self, tmp_path):
        spec = {
            "designs": ["ideal"],
            "num_runs": 1,
            "system": {"data_qubits_per_node": 16,
                       "comm_qubits_per_node": 4,
                       "buffer_qubits_per_node": 4},
            "axes": [{"fields": ["benchmark"],
                      "values": ["TLIM-32", "QFT-32"]}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rs.json"
        assert main(["sweep", "--spec", str(spec_path), "--benchmark",
                     "TLIM-16", "--quiet", "--out", str(out)]) == 0
        assert ResultSet.load(out).benchmarks() == ["TLIM-16"]

    def test_benchmark_axis_on_flags_path(self, tmp_path):
        out = tmp_path / "rs.json"
        assert main(["sweep", "--axis", "benchmark=TLIM-32,QFT-32",
                     "--design", "ideal", "--runs", "1",
                     *SMALL_SYSTEM_FLAGS, "--quiet", "--out", str(out)]) == 0
        assert ResultSet.load(out).benchmarks() == ["TLIM-32", "QFT-32"]

    def test_flags_override_spec(self, tmp_path):
        spec = {"benchmarks": ["TLIM-32"], "designs": ["ideal"],
                "num_runs": 5,
                "system": {"data_qubits_per_node": 16,
                           "comm_qubits_per_node": 4,
                           "buffer_qubits_per_node": 4}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rs.json"
        main(["sweep", "--spec", str(spec_path), "--runs", "1", "--quiet",
              "--out", str(out)])
        assert len(ResultSet.load(out)) == 1

    def test_runs_flag_replaces_spec_seed_axis(self, tmp_path):
        spec = {"benchmarks": ["TLIM-32"], "designs": ["ideal"],
                "system": {"data_qubits_per_node": 16,
                           "comm_qubits_per_node": 4,
                           "buffer_qubits_per_node": 4},
                "axes": [{"fields": ["seed"], "values": [5, 6]}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rs.json"
        main(["sweep", "--spec", str(spec_path), "--runs", "3", "--quiet",
              "--out", str(out)])
        results = ResultSet.load(out)
        assert len(results) == 3  # the flag wins over the spec's seed axis
        assert results.values("seed") == [1, 2, 3]

    def test_bad_spec_file_exits_nonzero(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"benchmarks": ["TLIM-32"],
                                         "warp": 9}))
        assert main(["sweep", "--spec", str(spec_path)]) == 2
        assert "unknown study spec keys" in capsys.readouterr().err


class TestStoreAndStatus:
    SWEEP = ["sweep", "--benchmark", "TLIM-32", "--design", "ideal",
             "--design", "original", "--runs", "4", *SMALL_SYSTEM_FLAGS]

    def test_interrupt_resume_status_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "st")
        baseline = tmp_path / "base.json"
        resumed = tmp_path / "resumed.json"
        assert main([*self.SWEEP, "--quiet", "--out", str(baseline)]) == 0
        # Interrupted invocation: two chunks, then stop (exit 0, store kept).
        assert main([*self.SWEEP, "--store", store, "--store-chunk-size", "2",
                     "--max-chunks", "2", "--quiet"]) == 0
        assert "re-run the same command to resume" in capsys.readouterr().err
        assert main(["status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "in progress" in out and "2/4" in out
        # Resume completes and matches the uninterrupted baseline exactly.
        assert main([*self.SWEEP, "--store", store, "--quiet",
                     "--out", str(resumed)]) == 0
        assert resumed.read_bytes() == baseline.read_bytes()
        assert main(["status", "--store", store, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["complete"] is True
        assert summary["done_chunks"] == summary["total_chunks"] == 4

    def test_json_progress_lines(self, tmp_path, capsys):
        store = str(tmp_path / "st")
        assert main([*self.SWEEP, "--store", store, "--store-chunk-size", "2",
                     "--json-progress"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert all(line["event"] == "progress" for line in lines)
        assert lines[-1]["complete"] is True
        assert lines[-1]["done_tasks"] == 8

    def test_resume_requires_existing_store(self, tmp_path, capsys):
        assert main([*self.SWEEP, "--store", str(tmp_path / "missing"),
                     "--resume", "--quiet"]) == 2
        assert "holds no started study" in capsys.readouterr().err
        assert main([*self.SWEEP, "--resume", "--quiet"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err

    def test_store_chunk_size_validated_without_store(self, capsys):
        assert main([*self.SWEEP, "--store-chunk-size", "0", "--quiet"]) == 2
        assert "store chunk size must be positive" in capsys.readouterr().err

    def test_store_format_requires_store(self, capsys):
        assert main([*self.SWEEP, "--store-format", "npz", "--quiet"]) == 2
        assert "--store-format needs --store" in capsys.readouterr().err

    def test_status_on_missing_store_fails(self, tmp_path, capsys):
        assert main(["status", "--store", str(tmp_path / "nope")]) == 2
        assert "not a run store" in capsys.readouterr().err

    def test_mismatched_store_reported(self, tmp_path, capsys):
        store = str(tmp_path / "st")
        assert main([*self.SWEEP, "--store", store, "--quiet"]) == 0
        assert main(["run", "--benchmark", "QFT-32", "--design", "ideal",
                     "--runs", "1", *SMALL_SYSTEM_FLAGS,
                     "--store", store, "--quiet"]) == 2
        assert "different study" in capsys.readouterr().err


class TestListCommands:
    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "TLIM-32" in out and "QAOA-r8-64" in out
        assert "QAOA-r4-16" in out  # family hint

    def test_list_designs(self, capsys):
        assert main(["list-designs"]) == 0
        out = capsys.readouterr().out
        for design in ("original", "sync_buf", "async_buf", "adapt_buf",
                       "init_buf", "ideal"):
            assert design in out

    def test_list_partitioners(self, capsys):
        assert main(["list-partitioners"]) == 0
        out = capsys.readouterr().out
        for name in ("multilevel", "kernighan_lin", "fiduccia_mattheyses",
                     "spectral", "precomputed"):
            assert name in out
        assert "kl = kernighan_lin" in out  # alias hint

    def test_list_topologies(self, capsys):
        assert main(["list-topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("all_to_all", "line", "ring", "star"):
            assert name in out
        assert "grid-RxC" in out  # family hint


class TestPartitionerTopologyAxes:
    def test_sweep_partitioner_by_topology_grid(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(["sweep", "--benchmark", "QAOA-r4-16",
                     "--design", "adapt_buf", "--runs", "1",
                     *SMALL_SYSTEM_FLAGS,
                     "--axis", "partition_method=multilevel,spectral",
                     "--axis", "topology=all_to_all,ring",
                     "--quiet", "--out", str(out)])
        assert code == 0
        results = ResultSet.load(out)
        assert len(results) == 4
        assert sorted(results.group_by("partition_method")) == [
            "multilevel", "spectral"]
        assert sorted(results.group_by("topology")) == ["all_to_all", "ring"]

    def test_partition_method_and_topology_flags(self, tmp_path):
        out = tmp_path / "rs.json"
        code = main(["run", "--benchmark", "TLIM-32", "--design", "ideal",
                     "--runs", "1", *SMALL_SYSTEM_FLAGS,
                     "--partition-method", "contiguous",
                     "--topology", "ring", "--quiet", "--out", str(out)])
        assert code == 0
        assert len(ResultSet.load(out)) == 1

    def test_unknown_partition_method_exits_nonzero(self, capsys):
        code = main(["run", "--benchmark", "TLIM-32", "--runs", "1",
                     "--partition-method", "metis"])
        assert code == 2
        assert "unknown partitioning method" in capsys.readouterr().err

    def test_unknown_topology_exits_nonzero(self, capsys):
        code = main(["run", "--benchmark", "TLIM-32", "--runs", "1",
                     "--topology", "torus"])
        assert code == 2
        assert "unknown topology" in capsys.readouterr().err

    def test_unlinked_topology_partition_reported(self, capsys):
        # A 4-node ring cannot serve QAOA's multilevel partition (diagonal
        # remote pairs); the CLI surfaces the compile-time topology error.
        code = main(["sweep", "--benchmark", "QAOA-r4-32",
                     "--design", "adapt_buf", "--runs", "1",
                     "--nodes", "4", "--topology", "ring"])
        assert code == 2
        assert "unlinked node pair" in capsys.readouterr().err
