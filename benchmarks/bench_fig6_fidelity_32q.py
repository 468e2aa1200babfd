"""Figure 6 — circuit fidelity of the 32-qubit benchmarks across designs.

Regenerates the estimated output fidelity of every design for the four
32-qubit benchmarks (the series plotted in Fig. 6) and checks the paper's
qualitative findings: buffered asynchronous designs reach the best fidelity,
the original design the worst, and the ideal execution upper-bounds all.
"""

from __future__ import annotations

import pytest

from conftest import backend_name, design_means, emit, repetitions
from repro.analysis import comparison_report
from repro.core import PAPER_32Q_SYSTEM
from repro.study import Study

BENCHMARKS_32Q = ["TLIM-32", "QAOA-r4-32", "QAOA-r8-32", "QFT-32"]


@pytest.fixture(scope="module")
def fig6_results():
    with Study(benchmarks=BENCHMARKS_32Q, num_runs=repetitions(),
               system=PAPER_32Q_SYSTEM, base_seed=11,
               backend=backend_name(), name="fig6-fidelity-32q") as study:
        return study.run()


def test_fig6_fidelity_series(benchmark, fig6_results):
    """Print the Fig. 6 fidelity panels and check the cross-design ordering."""
    def render_all():
        return "\n\n".join(
            comparison_report(panel, "fidelity")
            for panel in fig6_results.group_by("benchmark").values()
        )

    emit("Figure 6 — fidelity per design", benchmark.pedantic(render_all, rounds=1,
                                                              iterations=1))

    for fidelity in design_means(fig6_results, "fidelity").values():
        # Ideal execution is the upper bound.
        assert all(fidelity["ideal"] >= fidelity[d] - 1e-9 for d in fidelity)
        # Asynchronous buffered designs do not lose to the synchronous one.
        assert fidelity["async_buf"] >= fidelity["sync_buf"] * 0.97
        # Adaptive scheduling preserves the asynchronous fidelity.
        assert fidelity["adapt_buf"] == pytest.approx(fidelity["async_buf"], rel=0.1)
        # The original design never beats the asynchronous buffered design.
        assert fidelity["original"] <= fidelity["async_buf"] * 1.05


def test_fig6_async_improvement_over_original(fig6_results):
    """Async buffered fidelity improves on the original design (paper: ~2x average)."""
    ratios = []
    for fidelity in design_means(fig6_results, "fidelity").values():
        if fidelity["original"] > 1e-6:
            ratios.append(fidelity["async_buf"] / fidelity["original"])
    average = sum(ratios) / len(ratios)
    emit("Figure 6 — async_buf / original fidelity ratio",
         f"mean ratio: {average:.2f}x (paper: ~2x)")
    assert average >= 1.0
