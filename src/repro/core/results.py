"""Aggregated experiment results.

The paper reports, for every benchmark, the circuit depth and fidelity of
each design averaged over 50 stochastic runs, normalised by the ideal
(monolithic) execution.  :class:`DesignSummary` holds the per-design
aggregate and :class:`BenchmarkComparison` the whole row of a figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.statistics import SampleStatistics, ordered_sum, summarize
from repro.runtime.metrics import ExecutionResult

__all__ = ["DesignSummary", "BenchmarkComparison"]


@dataclass
class DesignSummary:
    """Aggregate of repeated runs of one design on one benchmark."""

    design: str
    benchmark: str
    depth: SampleStatistics
    fidelity: SampleStatistics
    mean_remote_wait: float
    mean_link_fidelity: float
    epr_generated: float
    epr_wasted: float
    num_runs: int

    @classmethod
    def from_results(cls, results: Sequence[ExecutionResult]) -> "DesignSummary":
        """Aggregate a list of runs of the same (design, benchmark) cell."""
        if not results:
            raise ValueError("cannot summarise an empty result list")
        first = results[0]
        return cls(
            design=first.design,
            benchmark=first.benchmark,
            depth=summarize([r.makespan for r in results]),
            fidelity=summarize([r.fidelity for r in results]),
            mean_remote_wait=ordered_sum(r.mean_remote_wait() for r in results)
            / len(results),
            mean_link_fidelity=ordered_sum(r.mean_link_fidelity()
                                           for r in results) / len(results),
            epr_generated=sum(r.epr_statistics.get("generated", 0) for r in results)
            / len(results),
            epr_wasted=sum(r.epr_statistics.get("wasted", 0) for r in results)
            / len(results),
            num_runs=len(results),
        )

    def depth_relative_to(self, ideal_depth: float) -> float:
        """Mean depth normalised by the ideal depth."""
        if ideal_depth <= 0:
            return float("inf")
        return self.depth.mean / ideal_depth

    def fidelity_relative_to(self, ideal_fidelity: float) -> float:
        """Mean fidelity normalised by the ideal fidelity."""
        if ideal_fidelity <= 0:
            return 0.0
        return self.fidelity.mean / ideal_fidelity


@dataclass
class BenchmarkComparison:
    """All design summaries of one benchmark (one panel of Fig. 5 / 6)."""

    benchmark: str
    summaries: Dict[str, DesignSummary] = field(default_factory=dict)

    def add(self, summary: DesignSummary) -> None:
        """Insert one design summary."""
        self.summaries[summary.design] = summary

    def design(self, name: str) -> DesignSummary:
        """Summary of a design by name."""
        return self.summaries[name]

    @property
    def designs(self) -> List[str]:
        """Design names present in this comparison."""
        return list(self.summaries)

    def ideal_depth(self) -> Optional[float]:
        """Mean depth of the ideal design (if simulated)."""
        ideal = self.summaries.get("ideal")
        return ideal.depth.mean if ideal else None

    def ideal_fidelity(self) -> Optional[float]:
        """Mean fidelity of the ideal design (if simulated)."""
        ideal = self.summaries.get("ideal")
        return ideal.fidelity.mean if ideal else None

    def depth_table(self) -> Dict[str, float]:
        """Mean absolute depth per design."""
        return {name: summary.depth.mean for name, summary in self.summaries.items()}

    def relative_depth_table(self) -> Dict[str, float]:
        """Depth per design relative to the ideal depth (Fig. 5 y-axis)."""
        ideal = self.ideal_depth()
        if not ideal:
            return {}
        return {
            name: summary.depth.mean / ideal
            for name, summary in self.summaries.items()
        }

    def fidelity_table(self) -> Dict[str, float]:
        """Mean absolute fidelity per design (Fig. 6 bar labels)."""
        return {
            name: summary.fidelity.mean for name, summary in self.summaries.items()
        }

    def depth_reduction_vs(self, baseline: str, design: str) -> float:
        """Relative depth reduction of ``design`` compared to ``baseline``."""
        base = self.summaries[baseline].depth.mean
        new = self.summaries[design].depth.mean
        if base <= 0:
            return 0.0
        return 1.0 - new / base
