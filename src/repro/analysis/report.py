"""Text reports reproducing the paper's tables and figures.

The benchmark harness prints the same rows and series the paper reports:
Table I (benchmark properties), Table II (operation properties), and the
depth / fidelity bars of Figs. 5-8.  Everything is plain text so the output
can be diffed and archived alongside EXPERIMENTS.md.

The figure reports read a :class:`~repro.study.results.ResultSet` through
:meth:`~repro.study.results.ResultSet.aggregate`, the one place results are
aggregated.  :func:`summary_report` accepts any *source* of records via
:func:`load_results`: an in-memory set, a ``to_json`` results file, or a
durable run-store directory — so a report can be rendered from a finished
(or resumed) ``--store`` sweep without re-running anything.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from repro.exceptions import ConfigurationError
from repro.hardware.parameters import GateFidelities, GateTimes

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
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


#: Number format of each metric a figure reports.
_METRIC_FORMATS = {"depth": "{:.2f}", "fidelity": "{:.4f}"}


def _metric_format(metric: str) -> str:
    try:
        return _METRIC_FORMATS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None


def _require_single(results: "ResultSet", keys: Sequence[str]) -> None:
    """Refuse a set whose records differ on ``keys``: a report averages
    each design over its records, and an average across benchmarks or
    system variants would be meaningless."""
    if keys and len(results.group_by(*keys)) > 1:
        raise ConfigurationError(
            f"the report needs one value of each of {', '.join(keys)}; "
            f"filter the set or group_by those columns first"
        )


def comparison_report(results: "ResultSet", metric: str = "depth") -> str:
    """One panel of Fig. 5 (depth) or Fig. 6 (fidelity) as a text table.

    ``results`` holds the runs of one benchmark on one system variant (a
    ``group_by("benchmark")`` group of a study, say); each design's row
    is its ``aggregate`` over those runs, relative to the ideal design's
    mean when the set has one.
    """
    number = _metric_format(metric)
    if not len(results):
        return "(no results)"
    _require_single(results, [*results.param_keys(), "benchmark"])
    stats = results.aggregate(metric, by="design")
    ideal = stats["ideal"].mean if "ideal" in stats else None
    rows = []
    for design, summary in stats.items():
        relative = (summary.mean / ideal) if ideal else float("nan")
        rows.append([design, number.format(summary.mean),
                     number.format(summary.std), f"{relative:.3f}"])
    title = f"{results.benchmarks()[0]} — {metric}"
    return title + "\n" + format_table(
        ["Design", "Mean", "Std", "Relative to ideal"], rows)


def sweep_report(results: "ResultSet", metric: str = "depth") -> str:
    """Fig. 7 style report: one design × swept-value table for a sweep.

    ``results`` holds one benchmark's runs over the study's swept
    parameters. Each column is one combination of the values the records
    carry, in sweep order, labelled with the values joined by ``/`` (a
    zipped ``("comm_qubits_per_node", "buffer_qubits_per_node")`` axis
    gives ``10/10``); each cell is a design's mean there.
    """
    number = _metric_format(metric)
    if not len(results):
        return "(no results)"
    _require_single(results, ["benchmark"])
    keys = results.param_keys()
    # Grouping by the one benchmark too keeps every group key a tuple.
    means = {group[1:]: stats.mean for group, stats in results.aggregate(
        metric, by=["benchmark", *keys, "design"]).items()}
    points = list(dict.fromkeys(group[:-1] for group in means))
    rows = [
        [design] + [number.format(means[(*point, design)])
                    if (*point, design) in means else "-"
                    for point in points]
        for design in results.designs()
    ]
    headers = ["Design"] + ["/".join(map(str, point)) for point in points]
    title = f"{results.benchmarks()[0]} — {metric} vs {'/'.join(keys)}"
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


def relative_depth_report(results: "ResultSet") -> str:
    """Fig. 5 style summary: relative depth of every design per benchmark.

    Each cell is a design's mean depth over the ideal design's mean depth
    on that benchmark (``nan`` where either is missing).
    """
    if not len(results):
        return "(no results)"
    _require_single(results, results.param_keys())
    depth = {group: stats.mean for group, stats in
             results.aggregate("depth", by=["benchmark", "design"]).items()}
    designs = results.designs()
    rows = []
    for benchmark in results.benchmarks():
        ideal = depth.get((benchmark, "ideal"))
        rows.append([benchmark] + [
            f"{depth[(benchmark, design)] / ideal:.2f}"
            if ideal and (benchmark, design) in depth else "nan"
            for design in designs
        ])
    return format_table(["Benchmark"] + designs, rows)
