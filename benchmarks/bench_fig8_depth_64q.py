"""Figure 8 — 64-qubit QAOA benchmarks on the larger 2-node system.

Regenerates the depth comparison of QAOA-r4-64 and QAOA-r8-64 on a 2-node
system with 32 data, 20 communication, and 20 buffer qubits per node
(Sec. V-C) and checks that the proposed designs keep reducing depth at the
larger scale.
"""

from __future__ import annotations

import pytest

from conftest import backend_name, design_means, emit, repetitions
from repro.analysis import comparison_report, relative_depth_report
from repro.core import PAPER_64Q_SYSTEM
from repro.study import Study

BENCHMARKS_64Q = ["QAOA-r4-64", "QAOA-r8-64"]


@pytest.fixture(scope="module")
def fig8_results():
    with Study(benchmarks=BENCHMARKS_64Q, num_runs=repetitions(),
               system=PAPER_64Q_SYSTEM, base_seed=31,
               backend=backend_name(), name="fig8-depth-64q") as study:
        return study.run()


def test_fig8_depth_series(benchmark, fig8_results):
    """Print the Fig. 8 panels and check the 64-qubit orderings."""
    def render():
        return relative_depth_report(fig8_results)

    emit("Figure 8 — 64-qubit depth relative to ideal",
         benchmark.pedantic(render, rounds=1, iterations=1))
    for name, panel in fig8_results.group_by("benchmark").items():
        emit(f"Figure 8 panel — {name}", comparison_report(panel, "depth"))

    for depth in design_means(fig8_results, "depth").values():
        assert depth["sync_buf"] < depth["original"]
        assert depth["async_buf"] <= depth["sync_buf"] * 1.05
        assert depth["init_buf"] <= depth["sync_buf"]
        # The ideal monolithic execution is essentially the lower bound; the
        # adaptive designs may sneak slightly below it on shallow circuits
        # because their ASAP reordering shortens the dependency critical path,
        # an optimisation the fixed-order ideal baseline does not apply.
        assert depth["ideal"] <= depth["init_buf"] * 1.15


def test_fig8_init_buf_reduction_vs_sync(fig8_results):
    """init_buf reduces depth versus sync_buf at 64 qubits (paper: 12%)."""
    reductions = {
        name: 1.0 - depth["init_buf"] / depth["sync_buf"]
        for name, depth in design_means(fig8_results, "depth").items()
    }
    emit("Figure 8 — init_buf depth reduction vs sync_buf",
         ", ".join(f"{name}: {value:.1%}" for name, value in reductions.items())
         + "   (paper: ~12%)")
    assert all(value >= 0.0 for value in reductions.values())
