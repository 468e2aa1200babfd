"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload fig56-paper --runs 10 --seconds 60

Run from the root of a checkout.  Each run is one ``run.py`` invocation
with its own seed (``--first-seed``, ``--first-seed + 1``, ...).  The
spread of a metric is the distance between the first and third quartile of
its values (``statistics.quantiles(values, n=4)``) as a share of their
median; ``BENCHMARK.json`` bounds each end-to-end metric's spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log-dir", type=Path, default=None,
                        help="keep each run's full output here")
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    series = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        if args.log_dir is not None:
            args.log_dir.mkdir(parents=True, exist_ok=True)
            (args.log_dir / f"{args.workload}-{seed}.txt").write_text(
                done.stdout)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} "
                  f"operations failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
    for name, values in series.items():
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name:28s} median {statistics.median(values):.6g}  "
              f"spread {spread(values):.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
