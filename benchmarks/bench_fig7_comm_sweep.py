"""Figure 7 — QAOA-r8-32 depth for different communication / buffer qubit counts.

Regenerates the two panels of Fig. 7: the circuit depth of the buffered
designs on QAOA-r8-32 when every node has 15/15 and 20/20 communication /
buffer qubits (plus the paper's base 10/10 case for reference), and checks
that more communication qubits push the depth toward the ideal.
"""

from __future__ import annotations

import pytest

from conftest import backend_name, design_means, emit, repetitions
from repro.analysis import comparison_report, sweep_report
from repro.core import PAPER_32Q_SYSTEM
from repro.study import Axis, Study

DESIGNS = ["sync_buf", "async_buf", "adapt_buf", "init_buf", "ideal"]
COUNTS = [10, 15, 20]


@pytest.fixture(scope="module")
def fig7_results():
    with Study(
        benchmarks="QAOA-r8-32", designs=DESIGNS,
        axes=[Axis(("comm_qubits_per_node", "buffer_qubits_per_node"),
                   [(count, count) for count in COUNTS])],
        num_runs=repetitions(), base_seed=21, system=PAPER_32Q_SYSTEM,
        backend=backend_name(), name="fig7-comm-sweep",
    ) as study:
        return study.run()


def test_fig7_comm_qubit_sweep(benchmark, fig7_results):
    """Print the Fig. 7 panels and check the scaling trend."""
    def render():
        blocks = [sweep_report(fig7_results, "depth")]
        for count, panel in fig7_results.group_by(
                "comm_qubits_per_node").items():
            blocks.append(
                f"#comm_qb = {count}, #buff_qb = {count}\n"
                + comparison_report(panel, "depth")
            )
        return "\n\n".join(blocks)

    emit("Figure 7 — QAOA-r8-32 depth vs communication/buffer qubits",
         benchmark.pedantic(render, rounds=1, iterations=1))

    depth = design_means(fig7_results, "depth", by="comm_qubits_per_node")
    # More communication qubits reduce (or preserve) the depth of every design.
    for design in ("sync_buf", "async_buf", "adapt_buf", "init_buf"):
        depths = [depth[count][design] for count in COUNTS]
        assert depths[-1] <= depths[0] * 1.05
    # init_buf consistently delivers the best performance (paper's finding).
    for count in COUNTS:
        table = depth[count]
        assert table["init_buf"] <= min(table["sync_buf"], table["async_buf"],
                                        table["adapt_buf"]) * 1.02
    # With 20 communication qubits init_buf approaches the ideal depth.
    final = depth[20]
    assert final["init_buf"] <= 1.6 * final["ideal"]


def test_fig7_fidelity_stays_flat(fig7_results):
    """The paper notes fidelity barely changes across the sweep."""
    fidelity = design_means(fig7_results, "fidelity", by="comm_qubits_per_node")
    fidelities = [fidelity[count]["adapt_buf"] for count in COUNTS]
    emit("Figure 7 — adapt_buf fidelity across the sweep",
         ", ".join(f"{count}: {value:.3f}" for count, value in zip(COUNTS, fidelities)))
    spread = max(fidelities) - min(fidelities)
    assert spread <= 0.15
