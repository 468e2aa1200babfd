"""Sample statistics over repeated stochastic runs.

Every figure of the paper averages 50 runs; this module provides the mean,
standard deviation, and confidence intervals used when aggregating the
repetitions, without depending on SciPy (a normal-approximation interval is
sufficient at these sample sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.exceptions import ConfigurationError

__all__ = ["SampleStatistics", "summarize", "relative_change", "ordered_sum"]


@dataclass(frozen=True)
class SampleStatistics:
    """Mean / spread summary of one metric over repeated runs."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Normal-approximation confidence interval of the mean."""
        if self.count <= 1:
            return (self.mean, self.mean)
        half_width = z * self.std / math.sqrt(self.count)
        return (self.mean - half_width, self.mean + half_width)

    @property
    def standard_error(self) -> float:
        """Standard error of the mean."""
        if self.count <= 1:
            return 0.0
        return self.std / math.sqrt(self.count)


def summarize(samples: Sequence[float]) -> SampleStatistics:
    """Compute :class:`SampleStatistics` for a non-empty sample list."""
    values = [float(v) for v in samples]
    if not values:
        raise ConfigurationError("cannot summarise an empty sample list")
    count = len(values)
    minimum = min(values)
    maximum = max(values)
    # fsum for accuracy, then clamp: float division can round the mean one
    # ULP outside [min, max] (e.g. three identical samples), breaking the
    # min <= mean <= max invariant consumers rely on.
    mean = min(max(math.fsum(values) / count, minimum), maximum)
    if count > 1:
        variance = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    else:
        variance = 0.0
    return SampleStatistics(
        mean=mean,
        std=math.sqrt(variance),
        minimum=minimum,
        maximum=maximum,
        count=count,
    )


def ordered_sum(values: Iterable[float]) -> float:
    """Sum ``values`` left to right from ``0.0``.

    The same bits on every Python version, where ``sum()`` of floats is
    not: Python 3.12 compensates it, 3.9-3.11 add left to right, and the
    pinned results were written in that order.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def relative_change(baseline: float, value: float) -> float:
    """Relative change ``(baseline - value) / baseline`` (positive = reduction)."""
    if baseline == 0:
        return 0.0
    return (baseline - value) / baseline
