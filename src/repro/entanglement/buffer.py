"""Buffer pool storing generated EPR-pair halves.

The buffer qubits of the paper hold the halves of successfully generated
entanglement until a remote gate consumes them.  :class:`BufferPool` tracks
the stored links between one node pair, enforces the buffer-qubit capacity,
applies an optional storage-cutoff policy (links stored for too long are
reset to avoid consuming heavily decohered entanglement), and accumulates
the statistics used in the evaluation (EPR waste, mean stored age).

A stored link is the float pair ``(created, buffered)``: the completion
time of the attempt that generated it and the time its buffering SWAP
finished.  It is available to remote gates from ``buffered`` on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.exceptions import BufferError

__all__ = ["BufferPool", "BufferStatistics"]

Link = Tuple[float, float]


@dataclass
class BufferStatistics:
    """Counters describing buffer usage over one simulation run."""

    stored_total: int = 0
    consumed_total: int = 0
    expired_total: int = 0
    rejected_total: int = 0
    total_consumed_age: float = 0.0

    @property
    def mean_consumed_age(self) -> float:
        """Mean link age (time between creation and consumption)."""
        if self.consumed_total == 0:
            return 0.0
        return self.total_consumed_age / self.consumed_total

    @property
    def wasted_total(self) -> int:
        """Links generated but never used by a remote gate."""
        return self.expired_total + self.rejected_total


class BufferPool:
    """Capacity-limited store of entanglement links for one node pair.

    A link arriving at a full buffer replaces the oldest stored link (the
    stale link is reset, as in the paper's cutoff policy discussion);
    remote gates consume the freshest available link, which maximises their
    fidelity.

    Parameters
    ----------
    capacity:
        Maximum number of simultaneously stored links (the per-pair buffer
        qubit budget).  A capacity of zero models the ``original`` design
        without buffer qubits: every link is rejected.
    cutoff:
        Optional storage cutoff: links stored for longer than this duration
        are discarded when the pool is advanced past their expiry time.
    """

    def __init__(self, capacity: int, cutoff: Optional[float] = None) -> None:
        if capacity < 0:
            raise BufferError("buffer capacity must be non-negative")
        if cutoff is not None and cutoff <= 0:
            raise BufferError("buffer cutoff must be positive when given")
        self.capacity = capacity
        self.cutoff = cutoff
        self._stored: List[Link] = []
        self.statistics = BufferStatistics()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._stored)

    @property
    def stored_links(self) -> List[Link]:
        """Currently stored ``(created, buffered)`` links, oldest first."""
        return list(self._stored)

    def count_available(self, time: float) -> int:
        """Number of stored links that are available at ``time``."""
        threshold = time + 1e-12
        return sum(1 for _, buffered in self._stored if buffered <= threshold)

    # ------------------------------------------------------------------
    def store(self, created: float, buffered: float) -> bool:
        """Store a link buffered at ``buffered``; ``False`` if it was rejected.

        When the pool is full the oldest stored link is reset and the new
        link takes its slot.  With a zero-capacity pool every link is
        rejected, which models the buffer-less ``original`` design.
        """
        self.expire_until(buffered)
        if len(self._stored) >= self.capacity:
            if self.capacity == 0:
                self.statistics.rejected_total += 1
                return False
            self._stored.pop(0)
            self.statistics.expired_total += 1
        self._stored.append((created, buffered))
        self.statistics.stored_total += 1
        return True

    def _consume(self, position: int, time: float) -> Tuple[float, float]:
        created, _ = self._stored.pop(position)
        age = max(0.0, time - created)
        statistics = self.statistics
        statistics.consumed_total += 1
        statistics.total_consumed_age += age
        return created, age

    def _freshest(self, threshold: float) -> int:
        """Position of the latest-created link buffered by ``threshold``, or -1."""
        best = -1
        best_created = 0.0
        for position, (created, buffered) in enumerate(self._stored):
            if buffered <= threshold and (best < 0 or created > best_created):
                best, best_created = position, created
        return best

    def pop_available(self, time: float) -> Tuple[float, float]:
        """Consume the freshest link available at ``time``.

        Returns the link's ``(created, age)``, its age at ``time``.
        """
        self.expire_until(time)
        position = self._freshest(time + 1e-12)
        if position < 0:
            raise BufferError(f"no stored link is available at time {time}")
        return self._consume(position, time)

    def take(self, time: float) -> Optional[Tuple[float, float, float]]:
        """Consume the link a remote gate ready at ``time`` gets from the pool.

        That is the freshest link available at ``time`` or, if none is, the
        freshest one available when the earliest in-flight buffering swap
        finishes.  Returns ``(ready, created, age)`` with ``age`` taken at
        ``ready``, or ``None`` when the pool is empty.
        """
        self.expire_until(time)
        position = self._freshest(time + 1e-12)
        if position >= 0:
            return (time, *self._consume(position, time))
        if not self._stored:
            return None
        ready = min(buffered for _, buffered in self._stored)
        return (ready, *self.pop_available(ready))

    def expire_until(self, time: float) -> int:
        """Apply the cutoff policy up to ``time``; returns the number expired."""
        if self.cutoff is None:
            return 0
        limit = self.cutoff + 1e-12
        remaining = [link for link in self._stored if time - link[1] <= limit]
        expired = len(self._stored) - len(remaining)
        self._stored = remaining
        self.statistics.expired_total += expired
        return expired

    def flush(self, time: float) -> int:
        """Discard every stored link (end of program); returns the count."""
        count = len(self._stored)
        self.statistics.expired_total += count
        self._stored = []
        return count
