#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

    python tools/perf_ab.py --base REV --workload fig56-paper --pairs 10 --seconds 60 [--seed K]

Checks ``REV`` out into a temporary directory (``git archive``, so nothing
is registered in ``.git`` and a killed run leaves nothing there to clean
up), then runs ``perfbench/run.py --trace 0`` of each checkout alternately:
the base runs first in odd pairs and the working tree in even ones, so
neither side always meets the host in the same phase.  On a shared host
the same code runs 1.5-2x slower for seconds to minutes at a time, so only
runs taken in the same window can judge a change.

Each run's metrics are the last JSON line ``run.py`` prints.  The steal
time of ``/proc/stat`` (the 8th number of its ``cpu`` line) is read before
and after every run and printed with it.  For each end-to-end metric of
``BENCHMARK.json`` the tool prints both medians, the base quartiles, the
pairs the change won (ties count for neither side), the ratio of the
medians and failed/attempted operations per side, then two verdicts:

* ``claim``: a gain may be claimed — the change won at least nine tenths
  of the pairs, its median is better than the base's by more than the
  distance between the base's quartiles, every run of both sides was
  ``correct`` and the change failed no more operations than the base;
* ``bound``: the change's median is no worse than the base's by more than
  the metric's ``BENCHMARK.json`` bound.

The last line of standard output is the whole report as JSON.  The
temporary checkout is removed on every exit, including SIGTERM and
Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
#: Slack on top of ``--seconds`` before a run counts as hung: ``run.py``
#: finishes its last repetition past ``--seconds`` and warms up first.
RUN_SLACK_S = 300


# ----------------------------------------------------------------------
# pure parts
# ----------------------------------------------------------------------
def pair_orders(pairs: int) -> List[Tuple[str, str]]:
    """Which side runs first in each pair: the base in odd pairs (from 1)."""
    return [SIDES if index % 2 == 0 else SIDES[::-1]
            for index in range(pairs)]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)`` of ``values``.

    ``statistics.quantiles``' default (exclusive) method, the one
    ``perfbench/repeat.py`` takes a metric's spread with; the middle value
    is the median.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, middle, third = quantiles(values, n=4)
    return first, middle, third


def pairs_won(base: Sequence[float], change: Sequence[float],
              better: str) -> int:
    """Pairs in which the change reads better; ties count for neither."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def judge(base: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Dict[str, Any]:
    """Medians, base quartiles, pairs won and both verdicts of one metric."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of runs per side")
    base_q1, base_median, base_q3 = quartiles(base)
    change_median = median(change)
    gain = (base_median - change_median if better == "lower"
            else change_median - base_median)
    won = pairs_won(base, change, better)
    return {
        "base_median": base_median,
        "base_quartiles": [base_q1, base_q3],
        "change_median": change_median,
        "ratio": change_median / base_median if base_median else None,
        "pairs_won": won,
        "pairs": len(base),
        "claim_met": 10 * won >= 9 * len(base) and gain > base_q3 - base_q1,
        "inside_bound": -gain <= bound * abs(base_median),
    }


def summarize(runs: Dict[str, List[Dict[str, Any]]],
              metrics: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The report of paired runs: per metric :func:`judge`, per side counts.

    ``runs`` maps each side to its ``run.py`` results in pair order, each
    with a ``steal_s`` entry; ``metrics`` are ``BENCHMARK.json``'s
    ``end_to_end`` declarations.  No metric's claim is met when a run of
    either side is not ``correct`` or the change failed more operations
    than the base.
    """
    report: Dict[str, Any] = {"metrics": {}}
    for side in SIDES:
        report[side] = {
            "failed": sum(run["failed"] for run in runs[side]),
            "attempted": sum(run["attempted"] for run in runs[side]),
            "incorrect": sum(not run["correct"] for run in runs[side]),
            "steal_s": [run["steal_s"] for run in runs[side]],
        }
    sound = (report["change"]["failed"] <= report["base"]["failed"]
             and not any(report[side]["incorrect"] for side in SIDES))
    for metric in metrics:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        row = judge(values["base"], values["change"], metric["better"],
                    metric["bound"])
        row["claim_met"] = row["claim_met"] and sound
        report["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], **row,
        }
    return report


def steal_ticks(stat: str) -> int:
    """Steal time in clock ticks: the 8th number of ``/proc/stat``'s ``cpu`` line."""
    for line in stat.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8])
    raise ValueError("no cpu line")


def last_json(stdout: str) -> Dict[str, Any]:
    """The JSON result ``perfbench/run.py`` prints as its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    return json.loads(lines[-1])


def format_report(report: Dict[str, Any]) -> List[str]:
    """Human-readable lines of :func:`summarize`'s report."""
    lines = [
        f"{'metric':16s} {'base median':>12s} {'[q1, q3]':>23s} "
        f"{'change':>12s} {'ratio':>7s} {'won':>6s}  failed/attempted "
        f"base | change  claim    bound"
    ]
    counts = " | ".join(f"{report[side]['failed']}/{report[side]['attempted']}"
                        for side in SIDES)
    for name, row in report["metrics"].items():
        q1, q3 = row["base_quartiles"]
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(
            f"{name:16s} {row['base_median']:12.6g} "
            f"[{q1:10.6g}, {q3:10.6g}] {row['change_median']:12.6g} "
            f"{ratio:>7s} {row['pairs_won']:>2d}/{row['pairs']:<3d}  "
            f"{counts:>29s}  "
            f"{'met' if row['claim_met'] else 'not met':8s} "
            f"{'inside' if row['inside_bound'] else 'OUTSIDE'} "
            f"({row['unit']}, {row['better']} is better, bound "
            f"{row['bound']:g})")
    for side in SIDES:
        steal = report[side]["steal_s"]
        known = [value for value in steal if value is not None]
        lines.append(f"{side} steal per run: "
                     + (" ".join(f"{value:.2f}" for value in known)
                        if known else "unknown") + " s")
    return lines


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def read_steal() -> Optional[int]:
    """Steal ticks so far, or ``None`` where ``/proc/stat`` is unreadable."""
    try:
        return steal_ticks(Path("/proc/stat").read_text())
    except (OSError, ValueError, IndexError):
        return None


def checkout(rev: str, dest: Path) -> None:
    """Extract the tree of commit ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def run_side(root: Path, workload: str, seconds: float,
             seed: Optional[int]) -> Dict[str, Any]:
    """One ``perfbench/run.py --trace 0`` run in ``root``, with its steal."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    before = read_steal()
    completed = subprocess.run(command, cwd=root, capture_output=True,
                               text=True, timeout=seconds + RUN_SLACK_S)
    after = read_steal()
    if completed.returncode:
        raise RuntimeError(f"run.py in {root} exited {completed.returncode}:"
                           f"\n{completed.stderr[-2000:]}")
    result = last_json(completed.stdout)
    result["steal_s"] = (None if before is None or after is None
                         else (after - before) / os.sysconf("SC_CLK_TCK"))
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired perfbench runs of a base revision against the "
                    "working tree.")
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned one)")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in declared["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    # The finally block below also runs on SIGTERM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    scratch = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    try:
        roots = {"base": scratch / "base", "change": ROOT}
        roots["base"].mkdir()
        checkout(commit, roots["base"])
        print(f"base {commit} against the working tree at {ROOT}; "
              f"{args.workload}, {args.pairs} pairs of {args.seconds:g}-s "
              f"runs", flush=True)
        for number, order in enumerate(pair_orders(args.pairs), 1):
            for side in order:
                result = run_side(roots[side], args.workload, args.seconds,
                                  args.seed)
                runs[side].append(result)
                steal = result["steal_s"]
                print(f"pair {number} {side}: failed {result['failed']}/"
                      f"{result['attempted']}, steal "
                      f"{'?' if steal is None else f'{steal:.2f}'} s: "
                      + " ".join(f"{name}={entry['value']:.6g}" for name, entry
                                 in result["metrics"].items()), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = summarize(runs, declared["end_to_end"])
    for line in format_report(report):
        print(line)
    print(json.dumps({"base": commit, "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
