"""Tests for the bench regression ledger (``repro bench``).

Pins the gate semantics the CI perf-smoke job relies on: rolling-median
baselines, the noise allowance, first-run bootstrap, torn-tail recovery
of the append-only history, and the CLI round trip that records a
``BENCH_*.json`` payload and fails — naming the metric and its baseline —
when a gated metric regresses.
"""

import json

import pytest

from repro.analysis.ledger import (
    DEFAULT_ALLOWANCE,
    DEFAULT_WINDOW,
    BenchLedger,
    LedgerError,
    Regression,
    check_metrics,
    classify_metric,
    flatten_metrics,
    load_bench_file,
    unmatched_namespaces,
)
from repro.study.cli import main


# ----------------------------------------------------------------------
class TestMetricClassification:
    def test_lower_is_better_names(self):
        for name in ("results.load.columnar_s", "batched_ms",
                     "warm_seconds", "runtime.latency_p50", "end_to_end_s"):
            assert classify_metric(name) == "lower"

    def test_higher_is_better_names(self):
        for name in ("results.combined.speedup", "runs_per_s",
                     "tasks_per_second", "throughput_runs",
                     "cache.hit_rate"):
            assert classify_metric(name) == "higher"

    def test_ungated_names(self):
        for name in ("records", "chunk_size", "shard_bytes.npz",
                     "identical_json", "cells"):
            assert classify_metric(name) is None

    def test_only_the_leaf_is_classified(self):
        # The namespace must not leak into classification: a payload
        # called BENCH_rates.json does not make every metric "higher".
        assert classify_metric("rates.records") is None
        assert classify_metric("speedup.records") is None

    def test_flatten_keeps_numbers_drops_bools(self):
        flat = flatten_metrics({
            "load": {"record_s": 1.5, "speedup": 3.0},
            "identical": True,
            "note": "text",
            "records": 100,
        })
        assert flat == {"load.record_s": 1.5, "load.speedup": 3.0,
                        "records": 100.0}

    def test_load_bench_file_namespaces_by_stem(self, tmp_path):
        path = tmp_path / "BENCH_results.json"
        path.write_text(json.dumps({"load": {"columnar_s": 0.25}}))
        assert load_bench_file(path) == {"results.load.columnar_s": 0.25}

    def test_load_bench_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(LedgerError, match="not a JSON object"):
            load_bench_file(path)
        with pytest.raises(LedgerError, match="cannot read"):
            load_bench_file(tmp_path / "absent.json")


# ----------------------------------------------------------------------
class TestCheckMetrics:
    def _history(self, *values, metric="x.run_s"):
        return [{metric: v} for v in values]

    def test_bootstrap_passes_with_no_history(self):
        assert check_metrics({"x.run_s": 123.0}, []) == []

    def test_within_allowance_passes(self):
        history = self._history(1.0, 1.0, 1.0)
        assert check_metrics({"x.run_s": 1.19}, history) == []

    def test_past_allowance_fails_lower_is_better(self):
        history = self._history(1.0, 1.0, 1.0)
        (regression,) = check_metrics({"x.run_s": 1.3}, history)
        assert regression.metric == "x.run_s"
        assert regression.baseline == 1.0
        assert regression.direction == "lower"

    def test_past_allowance_fails_higher_is_better(self):
        history = self._history(10.0, 10.0, metric="x.speedup")
        (regression,) = check_metrics({"x.speedup": 7.9}, history)
        assert regression.direction == "higher"
        assert check_metrics({"x.speedup": 8.1}, history) == []

    def test_baseline_is_rolling_median_of_window(self):
        # Window 3 over [1, 1, 1, 9, 1, 1] → last three are [9, 1, 1],
        # median 1: one noisy spike must not move the baseline.
        history = self._history(1.0, 1.0, 1.0, 9.0, 1.0, 1.0)
        (regression,) = check_metrics({"x.run_s": 1.5}, history, window=3)
        assert regression.baseline == 1.0
        # A window that is all spike *does* move it (median of [9,1] = 5).
        assert check_metrics({"x.run_s": 1.5}, history[:5],
                             window=2) == []

    def test_even_window_takes_midpoint(self):
        history = self._history(1.0, 3.0)
        (regression,) = check_metrics({"x.run_s": 99.0}, history, window=2)
        assert regression.baseline == 2.0

    def test_unclassified_metrics_never_gate(self):
        history = [{"x.records": 100.0}]
        assert check_metrics({"x.records": 1.0}, history) == []

    def test_improvement_never_fails(self):
        assert check_metrics({"x.run_s": 0.1},
                             self._history(1.0, 1.0)) == []
        assert check_metrics({"x.speedup": 50.0},
                             [{"x.speedup": 5.0}]) == []

    def test_metric_absent_from_history_bootstraps(self):
        history = self._history(1.0, 1.0)
        assert check_metrics({"y.other_s": 9.0}, history) == []

    def test_a_check_must_match_some_recorded_metric(self):
        history = self._history(1.0, 1.0)
        # A renamed payload matches nothing: both namespaces are named.
        assert unmatched_namespaces({"x_bad.run_s": 9.0, "x_bad.n": 3.0},
                                    history) == (["x_bad"], ["x"])
        # A new metric next to a matched one still bootstraps.
        assert unmatched_namespaces({"x.run_s": 1.0, "y.other_s": 9.0},
                                    history) is None
        # An empty ledger, or a payload that gates nothing, bootstraps.
        assert unmatched_namespaces({"x_bad.run_s": 9.0}, []) is None
        assert unmatched_namespaces({"x_bad.count": 9.0}, history) is None

    def test_invalid_window_and_allowance_rejected(self):
        with pytest.raises(LedgerError, match="window"):
            check_metrics({}, [], window=0)
        with pytest.raises(LedgerError, match="allowance"):
            check_metrics({}, [], allowance=-0.1)

    def test_describe_names_metric_and_baseline(self):
        regression = Regression(metric="x.run_s", value=1.3, baseline=1.0,
                                direction="lower",
                                allowance=DEFAULT_ALLOWANCE,
                                window=DEFAULT_WINDOW)
        text = regression.describe()
        assert "x.run_s" in text
        assert "1.3" in text and "rolling-median baseline 1" in text
        assert "30.0% slower" in text
        assert "allowance 20%" in text

    def test_zero_baseline_ratio_is_defined(self):
        assert Regression("m_s", 1.0, 0.0, "lower", 0.2, 5).ratio == \
            float("inf")
        assert Regression("m_s", 0.0, 0.0, "lower", 0.2, 5).ratio == 1.0


# ----------------------------------------------------------------------
class TestLedgerDurability:
    def test_record_then_history_round_trip(self, tmp_path):
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        assert ledger.entries() == []
        ledger.record({"x.run_s": 1.0}, run="run-1", timestamp=100.0)
        ledger.record({"x.run_s": 1.1}, run="run-2", timestamp=200.0)
        entries = ledger.entries()
        assert [e["run"] for e in entries] == ["run-1", "run-2"]
        assert ledger.history() == [{"x.run_s": 1.0}, {"x.run_s": 1.1}]

    def test_creation_fsyncs_its_directory_once(self, tmp_path,
                                                directory_fsyncs):
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        ledger.record({"x.run_s": 1.0})
        assert directory_fsyncs(tmp_path) == directory_fsyncs() == 1
        ledger.record({"x.run_s": 1.1})
        BenchLedger(tmp_path / "ledger.jsonl").record({"x.run_s": 1.2})
        assert directory_fsyncs() == 1

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = BenchLedger(path)
        ledger.record({"x.run_s": 1.0})
        # A kill mid-append leaves a half line with no newline: it was
        # never committed and must vanish from the history.
        with open(path, "ab") as handle:
            handle.write(b'{"ts": 1, "run": null, "metr')
        assert ledger.history() == [{"x.run_s": 1.0}]
        assert len(ledger.entries()) == 1

    def test_record_after_a_torn_tail_commits_a_clean_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = BenchLedger(path)
        ledger.record({"x.run_s": 1.0}, run="run-1")
        with open(path, "ab") as handle:
            handle.write(b'{"ts": 1, "run": null, "metr')
        # The next append drops the torn bytes instead of completing them
        # into one unreadable committed line.
        ledger.record({"x.run_s": 2.0}, run="run-2")
        assert [e["run"] for e in ledger.entries()] == ["run-1", "run-2"]
        assert path.read_bytes().count(b"\n") == 2

    def test_corrupt_committed_line_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        BenchLedger(path).record({"x.run_s": 1.0})
        with open(path, "ab") as handle:
            handle.write(b"{not json}\n")
        with pytest.raises(LedgerError, match="corrupt"):
            BenchLedger(path).entries()

    def test_entry_without_metrics_object_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ts": 1, "run": null, "metrics": 5}\n')
        with pytest.raises(LedgerError, match="unreadable committed"):
            BenchLedger(path).entries()

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        BenchLedger(path).record({"x.run_s": 1.0})
        with open(path, "ab") as handle:
            handle.write(b"\n")
        BenchLedger(path).record({"x.run_s": 2.0})
        assert BenchLedger(path).history() == [
            {"x.run_s": 1.0}, {"x.run_s": 2.0}]

    def test_check_uses_committed_history(self, tmp_path):
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        for _ in range(3):
            ledger.record({"x.run_s": 1.0})
        assert ledger.check({"x.run_s": 1.1}) == []
        (regression,) = ledger.check({"x.run_s": 2.0})
        assert regression.baseline == 1.0


# ----------------------------------------------------------------------
class TestBenchCli:
    """End-to-end ``repro bench`` round trip, as CI drives it."""

    def _payload(self, tmp_path, seconds, speedup=6.0):
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps({
            "load": {"columnar_s": seconds, "speedup": speedup},
            "records": 100000,
        }))
        return path

    def test_check_bootstraps_then_record_then_gate(self, tmp_path,
                                                    capsys):
        ledger = tmp_path / "ledger.jsonl"
        payload = self._payload(tmp_path, 1.0)
        # First check: no history, bootstrap pass.
        assert main(["bench", "check", str(payload),
                     "--ledger", str(ledger)]) == 0
        assert "0 recorded run(s) — ok" in capsys.readouterr().out
        # Record a few good runs.
        for run in range(3):
            assert main(["bench", "record", str(payload),
                         "--ledger", str(ledger),
                         "--run-id", f"run-{run}"]) == 0
        capsys.readouterr()
        # An unchanged payload passes against its own history.
        assert main(["bench", "check", str(payload),
                     "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        # A 30% slowdown fails, naming metric and baseline on stderr.
        worse = self._payload(tmp_path, 1.3, speedup=4.0)
        assert main(["bench", "check", str(worse),
                     "--ledger", str(ledger)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION demo.load.columnar_s: 1.3" in captured.err
        assert "baseline 1" in captured.err
        assert "REGRESSION demo.load.speedup" in captured.err
        assert "FAIL" in captured.out

    def test_check_of_a_renamed_payload_fails(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["bench", "record", str(self._payload(tmp_path, 1.0)),
                     "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        # The same payload, 30% slower, saved under another file name: its
        # metrics land in a namespace the ledger never recorded.
        renamed = tmp_path / "BENCH_demo_bad.json"
        renamed.write_text(self._payload(tmp_path, 1.3).read_text())
        assert main(["bench", "check", str(renamed),
                     "--ledger", str(ledger)]) == 1
        captured = capsys.readouterr()
        assert ("payload namespace(s) demo_bad has recorded history"
                in captured.err)
        assert "the ledger records namespace(s) demo " in captured.err
        assert "FAIL" in captured.out
        assert main(["bench", "check", str(renamed), "--ledger",
                     str(ledger), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False and report["regressions"] == []
        assert "demo_bad" in report["unmatched"]

    def test_check_json_output(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        payload = self._payload(tmp_path, 1.0)
        main(["bench", "record", str(payload), "--ledger", str(ledger)])
        capsys.readouterr()
        worse = self._payload(tmp_path, 2.0)
        assert main(["bench", "check", str(worse), "--ledger",
                     str(ledger), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["gated_metrics"] == ["demo.load.columnar_s",
                                           "demo.load.speedup"]
        (regression,) = report["regressions"]
        assert regression["metric"] == "demo.load.columnar_s"
        assert regression["baseline"] == 1.0

    def test_custom_window_and_allowance(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        main(["bench", "record", str(self._payload(tmp_path, 1.0)),
              "--ledger", str(ledger)])
        capsys.readouterr()
        mildly_worse = self._payload(tmp_path, 1.1)
        assert main(["bench", "check", str(mildly_worse),
                     "--ledger", str(ledger), "--allowance", "0.05"]) == 1
        capsys.readouterr()
        assert main(["bench", "check", str(mildly_worse),
                     "--ledger", str(ledger), "--allowance", "0.5"]) == 0

    def test_show_renders_history_table(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["bench", "show", "--ledger", str(ledger)]) == 0
        assert "no recorded runs" in capsys.readouterr().out
        main(["bench", "record", str(self._payload(tmp_path, 1.0)),
              "--ledger", str(ledger), "--run-id", "ci-17"])
        capsys.readouterr()
        assert main(["bench", "show", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "demo.load.columnar_s" in out
        assert "ci-17" in out

    def test_record_without_files_is_an_error(self, tmp_path, capsys):
        assert main(["bench", "record",
                     "--ledger", str(tmp_path / "l.jsonl")]) != 0
        assert "at least one" in capsys.readouterr().err
