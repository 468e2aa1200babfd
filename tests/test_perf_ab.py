"""The pure parts of ``tools/perf_ab.py`` on synthetic run results.

No subprocess and no git: pair ordering, quartiles, pairs won, the claim
and bound verdicts, and the parsing of ``run.py`` output and
``/proc/stat``.
"""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab_tool", _TOOL)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)


def test_pairs_alternate_which_side_runs_first():
    assert perf_ab.pair_orders(4) == [("base", "change"), ("change", "base"),
                                      ("base", "change"), ("change", "base")]
    assert perf_ab.pair_orders(1) == [("base", "change")]


def test_quartiles_match_the_benchmark_spread_and_the_middle_is_the_median():
    # statistics.quantiles' default (exclusive) method, as perfbench's
    # repeat.py takes a metric's spread.
    assert perf_ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (1.5, 3.0, 4.5)
    assert perf_ab.quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25)
    assert perf_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_ties_count_for_neither_side():
    base = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 3.5, 3.0]
    assert perf_ab.pairs_won(base, change, "lower") == 2
    assert perf_ab.pairs_won(base, change, "higher") == 1


def test_claim_needs_nine_tenths_won_and_a_gap_beyond_the_base_spread():
    base = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]
    faster = [value * 0.8 for value in base]
    row = perf_ab.judge(base, faster, "lower", 0.25)
    assert row["pairs_won"] == 10 and row["claim_met"] and row["inside_bound"]
    assert row["ratio"] == pytest.approx(0.8)
    # Eight pairs of ten are not enough, however large the gap.
    two_lost = faster[:8] + [11.0, 11.0]
    assert perf_ab.pairs_won(base, two_lost, "lower") == 8
    assert not perf_ab.judge(base, two_lost, "lower", 0.25)["claim_met"]
    # Nine of ten are, when the medians differ by more than the base's
    # quartile distance (0.45 here)...
    one_lost = faster[:9] + [11.0]
    assert perf_ab.judge(base, one_lost, "lower", 0.25)["claim_met"]
    # ...and not when they differ by less, although every pair is won.
    slightly = [value - 0.2 for value in base]
    row = perf_ab.judge(base, slightly, "lower", 0.25)
    assert row["pairs_won"] == 10 and not row["claim_met"]
    # Higher-is-better metrics win by reading more.
    row = perf_ab.judge(base, [value * 1.3 for value in base], "higher", 0.25)
    assert row["claim_met"] and row["pairs_won"] == 10


def test_bound_verdict_in_both_directions():
    base = [100.0] * 10
    assert perf_ab.judge(base, [124.0] * 10, "lower", 0.25)["inside_bound"]
    assert not perf_ab.judge(base, [126.0] * 10, "lower", 0.25)[
        "inside_bound"]
    assert perf_ab.judge(base, [76.0] * 10, "higher", 0.25)["inside_bound"]
    assert not perf_ab.judge(base, [74.0] * 10, "higher", 0.25)[
        "inside_bound"]
    # A gain is always inside; no change is inside and claims nothing.
    assert perf_ab.judge(base, [50.0] * 10, "lower", 0.05)["inside_bound"]
    row = perf_ab.judge(base, base, "lower", 0.05)
    assert row["inside_bound"] and not row["claim_met"]
    assert row["pairs_won"] == 0
    with pytest.raises(ValueError):
        perf_ab.judge(base, base[:9], "lower", 0.05)


def test_summary_counts_operations_per_side_and_judges_each_metric():
    metrics = [{"name": "chunk_p50_s", "unit": "s", "better": "lower",
                "bound": 0.25},
               {"name": "runs_per_s", "unit": "1/s", "better": "higher",
                "bound": 0.25}]

    def result(chunk, rate, failed=0, correct=True):
        return {"correct": correct, "failed": failed, "attempted": 48,
                "steal_s": 0.5,
                "metrics": {"chunk_p50_s": {"value": chunk, "unit": "s"},
                            "runs_per_s": {"value": rate, "unit": "1/s"}}}

    runs = {"base": [result(0.010, 1500.0) for _ in range(10)],
            "change": [result(0.007, 1510.0) for _ in range(10)]}
    report = perf_ab.summarize(runs, metrics)
    assert (report["base"]["failed"], report["base"]["attempted"]) == (0, 480)
    assert report["change"]["incorrect"] == 0
    assert report["change"]["steal_s"] == [0.5] * 10
    chunk = report["metrics"]["chunk_p50_s"]
    assert chunk["claim_met"] and chunk["pairs_won"] == 10
    assert chunk["unit"] == "s" and chunk["bound"] == 0.25
    # Every pair won by a hair: the base spread is 0, so the claim holds.
    assert report["metrics"]["runs_per_s"]["claim_met"]
    lines = perf_ab.format_report(report)
    assert lines[1].startswith("chunk_p50_s") and " met " in lines[1]
    assert "0/480 | 0/480" in lines[1]

    # A change that fails one operation more than the base claims nothing,
    # however fast; the bound verdict still reads the medians.
    runs["change"][3] = result(0.007, 1510.0, failed=1, correct=False)
    report = perf_ab.summarize(runs, metrics)
    assert (report["change"]["failed"], report["change"]["incorrect"]) == \
        (1, 1)
    for row in report["metrics"].values():
        assert not row["claim_met"] and row["inside_bound"]
    lines = perf_ab.format_report(report)
    assert "0/480 | 1/480" in lines[1] and "not met" in lines[1]

    # So does any run not ``correct``, on either side, even when the
    # failures are even.
    runs["base"][5] = result(0.010, 1500.0, failed=1, correct=False)
    report = perf_ab.summarize(runs, metrics)
    assert report["base"]["failed"] == report["change"]["failed"] == 1
    assert not report["metrics"]["chunk_p50_s"]["claim_met"]


def test_parses_the_last_json_line_and_steal():
    stdout = 'repetition 1: x=1\n  setup_s 0.5 s\n{"failed": 0}\n\n'
    assert perf_ab.last_json(stdout) == {"failed": 0}
    with pytest.raises(ValueError):
        perf_ab.last_json("\n")
    stat = ("cpu  100 5 50 9000 20 0 3 77 0 0\n"
            "cpu0 50 2 25 4500 10 0 1 40 0 0\n")
    assert perf_ab.steal_ticks(stat) == 77
