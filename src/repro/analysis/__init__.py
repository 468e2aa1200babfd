"""Statistics over repeated runs and text reports of the paper's tables."""

from repro.analysis.ledger import (
    BenchLedger,
    Regression,
    check_metrics,
    classify_metric,
    flatten_metrics,
)
from repro.analysis.report import (
    comparison_report,
    format_table,
    load_results,
    relative_depth_report,
    store_status_report,
    summary_report,
    sweep_report,
    table1_report,
    table2_report,
)
from repro.analysis.statistics import SampleStatistics, summarize

__all__ = [
    "SampleStatistics",
    "summarize",
    "BenchLedger",
    "Regression",
    "check_metrics",
    "classify_metric",
    "flatten_metrics",
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
