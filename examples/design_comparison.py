"""Reduced Figure 5 / Figure 6 reproduction via the Study API.

Runs all six designs on the 32-qubit benchmark suite as one declarative
:class:`repro.Study`, prints the depth-relative-to-ideal and fidelity tables
corresponding to Figs. 5 and 6 of the paper, and saves the flat ResultSet to
JSON so the grid can be re-analysed without re-simulation
(``ResultSet.load("design_comparison_results.json")``).

Set ``REPRO_RUNS=50`` to match the paper's averaging.

Run with:  python examples/design_comparison.py
"""

from __future__ import annotations

import os

from repro import PAPER_32Q_SYSTEM, Study
from repro.analysis import comparison_report, relative_depth_report

NUM_RUNS = int(os.environ.get("REPRO_RUNS", 5))
BENCHMARKS = ["TLIM-32", "QAOA-r4-32", "QAOA-r8-32", "QFT-32"]
OUTPUT = "design_comparison_results.json"


def main() -> None:
    study = Study(benchmarks=BENCHMARKS, num_runs=NUM_RUNS,
                  system=PAPER_32Q_SYSTEM, base_seed=1,
                  name="fig5-fig6-design-comparison")
    results = study.run()

    print("Figure 5 — circuit depth relative to the ideal execution")
    print(relative_depth_report(results))
    print()
    for panel in results.group_by("benchmark").values():
        print(comparison_report(panel, metric="fidelity"))
        print()

    # Headline numbers of the paper, recomputed from the flat records.
    depth = results.aggregate("depth", by=["benchmark", "design"])
    reductions = [
        1.0 - depth[(name, "sync_buf")].mean / depth[(name, "original")].mean
        for name in BENCHMARKS
    ]
    print(f"Average depth reduction from buffering alone: "
          f"{sum(reductions) / len(reductions):.1%} (paper reports 61.7%)")

    async_gain = [
        1.0 - depth[(name, "async_buf")].mean / depth[(name, "sync_buf")].mean
        for name in BENCHMARKS
    ]
    print(f"Additional reduction from asynchronous generation: "
          f"{sum(async_gain) / len(async_gain):.1%} (paper reports ~7%)")

    results.to_json(OUTPUT)
    print(f"\nFlat ResultSet written to {OUTPUT} "
          f"({len(results)} records; reload with ResultSet.load).")


if __name__ == "__main__":
    main()
