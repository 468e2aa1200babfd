"""Public co-design API: the single-run simulator and its configuration.

Experiments over grids of benchmarks × designs × seeds run through
:class:`~repro.study.study.Study`, whose
:class:`~repro.study.results.ResultSet` aggregates the runs
(:meth:`~repro.study.results.ResultSet.aggregate`) that the analysis
reports read.
"""

from repro.core.codesign import DQCSimulator
from repro.core.config import PAPER_32Q_SYSTEM, PAPER_64Q_SYSTEM, SystemConfig

__all__ = [
    "DQCSimulator",
    "SystemConfig",
    "PAPER_32Q_SYSTEM",
    "PAPER_64Q_SYSTEM",
]
