"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
corresponding rows/series.  The number of stochastic repetitions per cell is
controlled by the ``REPRO_RUNS`` environment variable (default 3 so the whole
harness completes in a couple of minutes; the paper uses 50).  The execution
backend of the figure sweeps is controlled by ``REPRO_BACKEND`` (``serial``
by default; set ``process`` to fan the seed × cell grid out across cores —
results are identical by construction).
"""

from __future__ import annotations

import os

import pytest


def repetitions(default: int = 3) -> int:
    """Number of stochastic repetitions per (benchmark, design) cell."""
    return int(os.environ.get("REPRO_RUNS", default))


def backend_name(default: str = "serial") -> str:
    """Execution backend used by the figure sweeps."""
    return os.environ.get("REPRO_BACKEND", default)


@pytest.fixture(scope="session")
def num_runs() -> int:
    """Session-wide repetition count."""
    return repetitions()


def emit(title: str, body: str) -> None:
    """Print one labelled report block."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)


def design_means(results, metric: str, by: str = "benchmark"):
    """Mean of ``metric`` per design, for each value of ``by`` (each
    benchmark, by default) in a result set."""
    return {value: {design: stats.mean for design, stats in
                    panel.aggregate(metric, by="design").items()}
            for value, panel in results.group_by(by).items()}
