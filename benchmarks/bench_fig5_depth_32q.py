"""Figure 5 — circuit depth of the 32-qubit benchmarks across designs.

Regenerates, for TLIM-32, QAOA-r4-32, QAOA-r8-32, and QFT-32 on the paper's
2-node 32-data-qubit system (10 communication + 10 buffer qubits per node,
psucc = 0.4), the mean circuit depth of every design and its value relative
to the ideal monolithic execution — the series plotted in Fig. 5.
"""

from __future__ import annotations

import pytest

from conftest import backend_name, design_means, emit, repetitions
from repro.analysis import comparison_report, relative_depth_report
from repro.core import PAPER_32Q_SYSTEM
from repro.study import Study

BENCHMARKS_32Q = ["TLIM-32", "QAOA-r4-32", "QAOA-r8-32", "QFT-32"]


@pytest.fixture(scope="module")
def fig5_results():
    with Study(benchmarks=BENCHMARKS_32Q, num_runs=repetitions(),
               system=PAPER_32Q_SYSTEM, base_seed=1,
               backend=backend_name(), name="fig5-depth-32q") as study:
        return study.run()


def test_fig5_depth_series(benchmark, fig5_results):
    """Print the Fig. 5 depth panels and check the paper's ordering."""
    def summary():
        return relative_depth_report(fig5_results)

    emit("Figure 5 — depth relative to ideal (all designs)",
         benchmark.pedantic(summary, rounds=1, iterations=1))
    for name, panel in fig5_results.group_by("benchmark").items():
        emit(f"Figure 5 panel — {name}", comparison_report(panel, "depth"))

    for depth in design_means(fig5_results, "depth").values():
        # Buffering is the dominant effect (paper: ~60 % average reduction).
        assert depth["sync_buf"] < depth["original"]
        # Asynchronous generation does not hurt and usually helps.
        assert depth["async_buf"] <= depth["sync_buf"] * 1.05
        # Adaptive scheduling never hurts the asynchronous design.
        assert depth["adapt_buf"] <= depth["async_buf"] * 1.05
        # Pre-initialised buffers give the lowest depth of the buffered designs.
        assert depth["init_buf"] <= depth["adapt_buf"] * 1.02
        # The ideal monolithic execution is the lower bound.
        assert depth["ideal"] <= depth["init_buf"] + 1e-9


def test_fig5_buffering_reduction_magnitude(fig5_results):
    """The average depth reduction of sync_buf vs original is large (paper: 61.7%)."""
    reductions = []
    for depth in design_means(fig5_results, "depth").values():
        reductions.append(1.0 - depth["sync_buf"] / depth["original"])
    average = sum(reductions) / len(reductions)
    emit("Figure 5 — average depth reduction from buffering",
         f"mean reduction sync_buf vs original: {average:.1%} (paper: 61.7%)")
    assert average > 0.3
