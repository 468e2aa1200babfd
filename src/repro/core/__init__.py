"""Public co-design API: the single-run simulator, configuration, results.

Experiments over grids of benchmarks × designs × seeds run through
:class:`~repro.study.study.Study`; its
:meth:`~repro.study.results.ResultSet.to_comparisons` rebuilds the
:class:`BenchmarkComparison` / :class:`DesignSummary` shapes the analysis
reports consume.
"""

from repro.core.codesign import DQCSimulator
from repro.core.config import PAPER_32Q_SYSTEM, PAPER_64Q_SYSTEM, SystemConfig
from repro.core.results import BenchmarkComparison, DesignSummary

__all__ = [
    "DQCSimulator",
    "SystemConfig",
    "PAPER_32Q_SYSTEM",
    "PAPER_64Q_SYSTEM",
    "BenchmarkComparison",
    "DesignSummary",
]
