"""Buffer pool storing generated EPR-pair halves.

The buffer qubits of the paper hold the halves of successfully generated
entanglement until a remote gate consumes them.  :class:`BufferPool` tracks
the stored links between one node pair, enforces the buffer-qubit capacity,
applies an optional storage-cutoff policy (links stored for too long are
reset to avoid consuming heavily decohered entanglement), and counts the
links it stores, serves and wastes.

A stored link is the float pair ``(created, buffered)``: the completion
time of the attempt that generated it and the time its buffering SWAP
finished.  It is available to remote gates from ``buffered`` on.

Each rule of the pool lives in one method: :meth:`BufferPool.store_all`
admits links (capacity, oldest-first reset, cutoff on arrival) and
:meth:`BufferPool.take` serves a remote gate (the freshest-link rule).
:meth:`~BufferPool.store` and :meth:`~BufferPool.pop_available` are their
one-link views.  The entanglement service calls ``store_all`` once per
advance of its frontier and ``take`` once per remote gate; without a
cutoff neither makes a further call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

        The one-link case of :meth:`store_all`.
        """
        return self.store_all(((created, buffered),)) == 1

    def store_all(self, links: Sequence[Link]) -> int:
        """Store ``(created, buffered)`` links in order; returns how many were kept.

        When the pool is full the oldest stored link is reset and the new
        link takes its slot.  With a zero-capacity pool every link is
        rejected, which models the buffer-less ``original`` design.  With a
        cutoff, each arriving link first expires the links it outlives.
        """
        statistics = self.statistics
        capacity = self.capacity
        count = len(links)
        if not capacity:
            statistics.rejected_total += count
            return 0
        stored = self._stored
        if self.cutoff is None:
            stored += links
            overflow = len(stored) - capacity
            if overflow > 0:
                del stored[:overflow]
                statistics.expired_total += overflow
        else:
            for link in links:
                self.expire_until(link[1])
                stored.append(link)
                if len(stored) > capacity:
                    del stored[0]
                    statistics.expired_total += 1
        statistics.stored_total += count
        return count

    def pop_available(self, time: float) -> Tuple[float, float]:
        """Consume the freshest link available at ``time``.

        Returns the link's ``(created, age)``, its age at ``time``.
        """
        self.expire_until(time)
        if not self.count_available(time):
            raise BufferError(f"no stored link is available at time {time}")
        return self.take(time)[1:]

    def take(self, time: float) -> Optional[Tuple[float, float, float]]:
        """Consume the link a remote gate ready at ``time`` gets from the pool.

        That is the freshest link available at ``time`` or, if none is, the
        freshest one available when the earliest in-flight buffering swap
        finishes; ties in creation time go to the link stored first.
        Returns ``(ready, created, age)`` with ``age`` taken at ``ready``,
        or ``None`` when the pool is empty.
        """
        if self.cutoff is not None:
            self.expire_until(time)
        stored = self._stored
        if not stored:
            return None
        ready = time
        threshold = time + 1e-12
        while True:
            best = -1
            best_created = 0.0
            position = 0
            for created, buffered in stored:
                if buffered <= threshold and (best < 0
                                              or created > best_created):
                    best = position
                    best_created = created
                position += 1
            if best >= 0:
                break
            # Nothing is available yet: wait for the first swap to finish.
            ready = min([link[1] for link in stored])
            threshold = ready + 1e-12
        del stored[best]
        age = ready - best_created
        age = age if age > 0.0 else 0.0
        self.statistics.consumed_total += 1
        return ready, best_created, age

    def expire_until(self, time: float) -> int:
        """Apply the cutoff policy up to ``time``; returns the number expired."""
        if self.cutoff is None:
            return 0
        limit = self.cutoff + 1e-12
        stored = self._stored
        remaining = [link for link in stored if time - link[1] <= limit]
        expired = len(stored) - len(remaining)
        if expired:
            stored[:] = remaining
            self.statistics.expired_total += expired
        return expired

    def flush(self, time: float) -> int:
        """Discard every stored link (end of program); returns the count."""
        count = len(self._stored)
        self.statistics.expired_total += count
        self._stored.clear()
        return count
