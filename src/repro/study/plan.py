"""Lazy, deduplicated expansion of a study grid into engine cells.

The :class:`~repro.study.study.Study` turns every grid point into one
:class:`PlanCell` — the engine-facing unit of work: a (benchmark, design,
system, scheduling-knob) combination plus the seeds it is replayed under.
:class:`ExecutionPlan` holds the cells; it

* is **lazy** — cells are expanded from the grid on first access, nothing
  is compiled or executed at plan time, and
* is **deduplicated** — grid points whose configurations fingerprint
  identically (e.g. duplicate axis values) collapse into a single cell, so
  each unique configuration is compiled and executed exactly once.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.config import SystemConfig
from repro.engine.cache import fingerprint
from repro.runtime.designs import DesignSpec
from repro.scheduling.policies import AdaptivePolicy

__all__ = ["PlanCell", "ExecutionPlan", "jsonify", "param_token"]


def jsonify(value: Any) -> Any:
    """Reduce a value to JSON-compatible structures.

    Applied to swept-parameter coordinates before they enter a
    :class:`~repro.study.results.RunRecord`, so records compare equal across
    a JSON serialisation round-trip (tuples become lists, dataclasses and
    enums become plain data).
    """
    if isinstance(value, enum.Enum):
        return value.name
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    return value


def param_token(value: Any) -> Any:
    """Reduce one axis coordinate to a hashable, JSON-compatible scalar.

    Records must stay groupable by any swept parameter, so non-primitive
    coordinates (e.g. an :class:`AdaptivePolicy` on an ``adaptive_policy``
    axis) become their stable ``repr`` string rather than an unhashable
    dict; primitives pass through unchanged.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    return repr(value)


@dataclass(frozen=True, eq=False)
class PlanCell:
    """One engine cell of a study: what to compile and which seeds to run.

    ``design`` keeps the caller-supplied value (a registered name or an
    explicit :class:`DesignSpec`, e.g. an ablation override);
    ``design_name`` is the flat label that ends up in the records.
    ``params`` are the cell's coordinates on the study's non-reserved axes.
    """

    benchmark: str
    design: Union[str, DesignSpec]
    system: SystemConfig
    seeds: Tuple[int, ...]
    segment_length: Optional[int] = None
    adaptive_policy: Optional[AdaptivePolicy] = None
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def design_name(self) -> str:
        """Flat design label used in records and reports."""
        return self.design.name if isinstance(self.design, DesignSpec) else self.design

    @cached_property
    def key(self) -> str:
        """Configuration fingerprint used for plan deduplication (computed
        once per cell; the plan and the run-store fingerprint both read
        it)."""
        design_token = (self.design if isinstance(self.design, DesignSpec)
                        else str(self.design).lower())
        return fingerprint(
            "plan-cell", self.benchmark.lower(), design_token, self.system,
            self.segment_length, self.adaptive_policy, self.seeds,
        )

    @property
    def num_tasks(self) -> int:
        """Number of execution tasks (one per seed)."""
        return len(self.seeds)


class ExecutionPlan:
    """The deduplicated cell list of one study, expanded lazily.

    Parameters
    ----------
    cells:
        An iterable (typically a generator over grid points) producing
        :class:`PlanCell` objects.  It is consumed on first access; cells
        with a fingerprint already in the plan are dropped.
    """

    def __init__(self, cells: Iterable[PlanCell]) -> None:
        self._source: Optional[Iterable[PlanCell]] = cells
        self._cells: Optional[List[PlanCell]] = None
        self.duplicates_dropped = 0

    # ------------------------------------------------------------------
    @property
    def cells(self) -> List[PlanCell]:
        """The unique cells, expanding the source on first access."""
        if self._cells is None:
            unique: Dict[str, PlanCell] = {}
            dropped = 0
            for cell in self._source or ():
                if unique.setdefault(cell.key, cell) is not cell:
                    dropped += 1
            self._cells = list(unique.values())
            self.duplicates_dropped = dropped
            self._source = None
        return self._cells

    @property
    def expanded(self) -> bool:
        """Whether the lazy expansion has happened yet."""
        return self._cells is not None

    @property
    def num_tasks(self) -> int:
        """Total execution tasks across all cells."""
        return sum(cell.num_tasks for cell in self.cells)

    def systems(self) -> List[SystemConfig]:
        """Distinct hardware configurations, in first-seen order."""
        unique: Dict[str, SystemConfig] = {}
        for cell in self.cells:
            unique.setdefault(fingerprint("system", cell.system), cell.system)
        return list(unique.values())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[PlanCell]:
        return iter(self.cells)

    def __getitem__(self, index: int) -> PlanCell:
        return self.cells[index]

    def __repr__(self) -> str:
        if not self.expanded:
            return "ExecutionPlan(<unexpanded>)"
        return (f"ExecutionPlan({len(self.cells)} cells, "
                f"{self.num_tasks} tasks, "
                f"{len(self.systems())} systems)")
