"""Text reports reproducing the paper's tables and figures.

The benchmark harness prints the same rows and series the paper reports:
Table I (benchmark properties), Table II (operation properties), and the
depth / fidelity bars of Figs. 5-8.  Everything is plain text so the output
can be diffed and archived alongside EXPERIMENTS.md.

Result-shaped reports accept any *source* of records via
:func:`load_results`: an in-memory :class:`~repro.study.results.ResultSet`,
a ``to_json`` results file, or a durable run-store directory — so a report
can be rendered from a finished (or resumed) ``--store`` sweep without
re-running anything.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence,
    Union,
)

from repro.hardware.parameters import GateFidelities, GateTimes

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.core.results import BenchmarkComparison
    from repro.study.results import ResultSet
    from repro.study.store import RunStore

__all__ = [
    "format_table",
    "table1_report",
    "table2_report",
    "comparison_report",
    "sweep_report",
    "relative_depth_report",
    "load_results",
    "summary_report",
    "store_status_report",
]

#: Anything a result-shaped report can render: an in-memory set, a
#: ``ResultSet.to_json`` file, or a run-store directory.
ResultsLike = Union["ResultSet", str, Path, "RunStore"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a list of rows as an aligned plain-text table."""
    columns = len(headers)
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows)) if str_rows
        else len(str(headers[i]))
        for i in range(columns)
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    output = [line([str(h) for h in headers])]
    output.append(line(["-" * width for width in widths]))
    output.extend(line(row) for row in str_rows)
    return "\n".join(output)


def table1_report(properties: Mapping[str, Mapping[str, object]],
                  paper_values: Optional[Mapping[str, Mapping[str, object]]] = None
                  ) -> str:
    """Table I: benchmark properties (ours vs the paper's, when provided)."""
    headers = ["Name", "#qubits", "#local 2Q", "#remote 2Q", "#1Q", "depth"]
    rows = []
    for name, props in properties.items():
        rows.append([
            name, props["qubits"], props["local_2q"], props["remote_2q"],
            props["single_q"], props["depth"],
        ])
        if paper_values and name in paper_values:
            paper = paper_values[name]
            rows.append([
                f"  (paper)", "", paper.get("local_2q", "-"),
                paper.get("remote_2q", "-"), paper.get("single_q", "-"),
                paper.get("depth", "-"),
            ])
    return format_table(headers, rows)


def table2_report() -> str:
    """Table II: quantum operation properties used by the simulator."""
    times, fidelities = GateTimes(), GateFidelities()
    rows = [
        [label, latency, f"{fidelity * 100:.2f}%"]
        for label, latency, fidelity in (
            ("1Q gates", times.single_qubit, fidelities.single_qubit),
            ("Local CNOT gates", times.local_cnot, fidelities.local_cnot),
            ("Measurement", times.measurement, fidelities.measurement),
            ("EPR pair preparation", times.epr_generation_cycle,
             fidelities.epr_pair),
        )
    ]
    return format_table(["Name", "Latency", "Fidelity"], rows)


def comparison_report(comparison: "BenchmarkComparison",
                      metric: str = "depth") -> str:
    """One panel of Fig. 5 (depth) or Fig. 6 (fidelity) as a text table."""
    headers = ["Design", "Mean", "Std", "Relative to ideal"]
    ideal_depth = comparison.ideal_depth()
    ideal_fidelity = comparison.ideal_fidelity()
    rows = []
    for name, summary in comparison.summaries.items():
        if metric == "depth":
            stats = summary.depth
            relative = (stats.mean / ideal_depth) if ideal_depth else float("nan")
        elif metric == "fidelity":
            stats = summary.fidelity
            relative = (stats.mean / ideal_fidelity) if ideal_fidelity else float("nan")
        else:
            raise ValueError(f"unknown metric {metric!r}")
        rows.append([name, f"{stats.mean:.2f}" if metric == "depth" else f"{stats.mean:.4f}",
                     f"{stats.std:.2f}" if metric == "depth" else f"{stats.std:.4f}",
                     f"{relative:.3f}"])
    title = f"{comparison.benchmark} — {metric}"
    return title + "\n" + format_table(headers, rows)


def sweep_report(sweep: Mapping[int, "BenchmarkComparison"],
                 metric: str = "depth") -> str:
    """Fig. 7 style report: one design × qubit-count table for a sweep.

    ``sweep`` maps communication/buffer qubit counts to the
    :class:`BenchmarkComparison` evaluated at that count: the
    ``to_comparisons(by="comm_qubits_per_node")`` of a
    :class:`~repro.study.study.Study` with a zipped
    ``("comm_qubits_per_node", "buffer_qubits_per_node")`` axis.
    """
    if metric not in ("depth", "fidelity"):
        raise ValueError(f"unknown metric {metric!r}")
    if not sweep:
        return "(no results)"
    counts = sorted(sweep)
    designs = sweep[counts[0]].designs
    benchmark = sweep[counts[0]].benchmark
    headers = ["Design"] + [f"{count}/{count}" for count in counts]
    rows = []
    for design in designs:
        cells = []
        for count in counts:
            table = (sweep[count].depth_table() if metric == "depth"
                     else sweep[count].fidelity_table())
            value = table.get(design)
            if value is None:
                cells.append("-")
            else:
                cells.append(f"{value:.2f}" if metric == "depth"
                             else f"{value:.4f}")
        rows.append([design] + cells)
    title = f"{benchmark} — {metric} vs #comm/#buffer qubits per node"
    return title + "\n" + format_table(headers, rows)


def load_results(source: ResultsLike,
                 allow_partial: bool = False) -> "ResultSet":
    """Resolve any results source into a :class:`ResultSet`.

    Accepts an in-memory set (returned unchanged), a path to a
    ``ResultSet.to_json`` file, or a run-store *directory* (loaded via
    :meth:`ResultSet.from_store`; pass ``allow_partial=True`` to report on
    a store that is still mid-study).
    """
    from repro.study.results import ResultSet
    from repro.study.store import RunStore

    if isinstance(source, ResultSet):
        return source
    if isinstance(source, RunStore):
        return ResultSet.from_store(source, allow_partial=allow_partial)
    path = Path(source)
    if path.is_dir():
        return ResultSet.from_store(path, allow_partial=allow_partial)
    return ResultSet.load(path)


def summary_report(source: ResultsLike, allow_partial: bool = False) -> str:
    """Depth / fidelity summary table of a study's results.

    One row per (swept parameters, benchmark, design) group — the table
    ``python -m repro run`` prints.  ``source`` may be a result set, a
    results JSON file, or a run-store directory (see :func:`load_results`).
    """
    results = load_results(source, allow_partial=allow_partial)
    params = results.param_keys()
    group_cols = [*params, "benchmark", "design"]
    if not len(results):
        return format_table([*group_cols, "runs", "mean depth", "std",
                             "mean fidelity"], [])
    depth = results.aggregate("depth", by=group_cols)
    fidelity = results.aggregate("fidelity", by=group_cols)
    headers = [*group_cols, "runs", "mean depth", "std", "mean fidelity"]
    rows = []
    for group, stats in depth.items():
        key = group if isinstance(group, tuple) else (group,)
        rows.append([
            *key, stats.count, f"{stats.mean:.2f}", f"{stats.std:.2f}",
            f"{fidelity[group].mean:.4f}",
        ])
    return format_table(headers, rows)


def store_status_report(store: Union[str, Path, "RunStore"]) -> str:
    """Manifest summary of a run store (the ``status`` subcommand body)."""
    from repro.study.store import RunStore

    if not isinstance(store, RunStore):
        store = RunStore.load(store)
    summary = store.summary()
    state = "complete" if summary["complete"] else "in progress"
    rows = [
        ["study", summary["name"] or "(unnamed)"],
        ["state", state],
        ["chunks", f"{summary['done_chunks']}/{summary['total_chunks']}"],
        ["runs", f"{summary['done_tasks']}/{summary['total_tasks']}"],
        ["cells", summary["cells"]],
        ["chunk size", summary["chunk_size"]],
        ["benchmarks", ", ".join(summary["benchmarks"])],
        ["designs", ", ".join(summary["designs"])],
        ["plan fingerprint", summary["fingerprint"][:16] + "…"],
    ]
    return (f"store: {summary['path']}\n"
            + format_table(["field", "value"], rows))


def relative_depth_report(comparisons: Iterable["BenchmarkComparison"]) -> str:
    """Fig. 5 style summary: relative depth of every design per benchmark."""
    comparisons = list(comparisons)
    if not comparisons:
        return "(no results)"
    designs = comparisons[0].designs
    headers = ["Benchmark"] + designs
    rows = []
    for comparison in comparisons:
        relative = comparison.relative_depth_table()
        rows.append([comparison.benchmark] + [
            f"{relative.get(design, float('nan')):.2f}" for design in designs
        ])
    return format_table(headers, rows)
