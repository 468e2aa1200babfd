"""Execution traces.

A trace records, for every executed gate, when it started and finished and
which resources it used.  Traces are optional (they cost memory on large
circuits) and are used by tests, examples, and the Gantt-style text renderer
below to inspect what a design actually did with its entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["GateTraceEntry", "ExecutionTrace"]


@dataclass(frozen=True)
class GateTraceEntry:
    """Schedule record of a single executed gate."""

    gate_index: int
    name: str
    qubits: Tuple[int, ...]
    start: float
    finish: float
    is_remote: bool = False
    link_fidelity: Optional[float] = None

    @property
    def duration(self) -> float:
        """Gate duration in depth units."""
        return self.finish - self.start


@dataclass
class ExecutionTrace:
    """Ordered collection of gate trace entries for one run."""

    entries: List[GateTraceEntry] = field(default_factory=list)

    def record(self, entry: GateTraceEntry) -> None:
        """Append one entry."""
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def remote_entries(self) -> List[GateTraceEntry]:
        """Only the remote-gate entries."""
        return [entry for entry in self.entries if entry.is_remote]

    def is_consistent(self) -> bool:
        """No two gates overlap on the same qubit (schedule legality)."""
        per_qubit: Dict[int, List[Tuple[float, float]]] = {}
        for entry in self.entries:
            for qubit in entry.qubits:
                per_qubit.setdefault(qubit, []).append((entry.start, entry.finish))
        for intervals in per_qubit.values():
            intervals.sort()
            for (start_a, finish_a), (start_b, _) in zip(intervals, intervals[1:]):
                if start_b < finish_a - 1e-9:
                    return False
        return True

    def makespan(self) -> float:
        """Latest finish time across all entries."""
        return max((entry.finish for entry in self.entries), default=0.0)

    def render(self, max_entries: int = 40) -> str:
        """Human-readable listing of the first ``max_entries`` entries."""
        lines = ["idx  name      qubits        start    finish   remote"]
        for entry in self.entries[:max_entries]:
            lines.append(
                f"{entry.gate_index:<4d} {entry.name:<9s} "
                f"{str(entry.qubits):<13s} {entry.start:8.2f} {entry.finish:8.2f}"
                f"   {'yes' if entry.is_remote else 'no'}"
            )
        if len(self.entries) > max_entries:
            lines.append(f"... ({len(self.entries) - max_entries} more)")
        return "\n".join(lines)
