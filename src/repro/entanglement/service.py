"""Interactive entanglement-supply simulation for one node pair.

:class:`EntanglementService` is the component the discrete-event executors
talk to.  It moves a frontier forward in time over the successes of an
:class:`EntanglementGenerator`, stores the resulting links in a
capacity-limited :class:`BufferPool`, and serves remote gates through
:meth:`acquire`.

Design variants map onto service configurations:

* ``original`` — ``buffer_capacity = 0``: links cannot be stored, so a
  success is only useful if a remote gate is already waiting (on-demand
  consumption straight from the communication qubits); all other successes
  are wasted.
* ``sync_buf`` / ``async_buf`` — positive buffer capacity with synchronous or
  asynchronous attempt phasing; successes are swapped into buffer qubits and
  wait for remote gates.
* ``init_buf`` — same, but the buffer starts pre-filled with EPR pairs
  generated before program start.

An executor makes one call per remote gate, :meth:`EntanglementService.acquire`,
and that call stays flat: it advances the frontier only when the query
passes it (:meth:`~EntanglementService.advance_to`: one
:meth:`~repro.entanglement.generator.EntanglementGenerator.indices_between`
query and one :meth:`~repro.entanglement.buffer.BufferPool.store_all` for
the new successes), takes the link with one
:meth:`~repro.entanglement.buffer.BufferPool.take`, and evaluates one
Werner decay.  Only a gate that finds the buffer empty asks the generator
for a fresh success
(:meth:`~repro.entanglement.generator.EntanglementGenerator.first_fresh_index`).
The interval rule stays in the generator and the freshest-link rule in the
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.entanglement.buffer import BufferPool
from repro.entanglement.generator import EntanglementGenerator
from repro.entanglement.werner import werner_fidelity_after
from repro.exceptions import EntanglementError
from repro.hardware.parameters import GateFidelities

__all__ = ["EntanglementService", "ServiceStatistics"]


@dataclass
class ServiceStatistics:
    """Counters for one node pair over one simulation run."""

    generated_total: int = 0
    consumed_from_buffer: int = 0
    consumed_direct: int = 0

    @property
    def consumed_total(self) -> int:
        """Total links consumed by remote gates."""
        return self.consumed_from_buffer + self.consumed_direct


class EntanglementService:
    """EPR-pair supply between two nodes, driven forward in time.

    Parameters
    ----------
    generator:
        Stochastic success process over the attempt schedule (sync/async).
    buffer_capacity:
        Number of links storable between the node pair (0 = no buffer).
    kappa:
        Decoherence rate used for link-fidelity decay.
    initial_fidelity:
        Werner fidelity of freshly generated links (default: Table II's
        EPR pair fidelity).
    swap_latency:
        Latency of the local SWAP that moves a fresh link into the buffer.
    buffer_cutoff:
        Optional storage cutoff after which buffered links are discarded.
    prefill:
        Number of pre-generated links placed in the buffer at time 0
        (``init_buf`` design).
    node_pair:
        The two node indices this service connects.

    Notes
    -----
    Queries may go backwards in time: an executor asks for a link when a
    remote gate's operands are free, and gates on other qubits may already
    have asked at later times (on the Fig. 5/6 grid about one acquire in
    eight is earlier than the previous query).  The service keeps a
    *frontier*, the latest time any query has reached.  Successes up to the
    frontier have gone to the buffer (or been wasted), and nothing at or
    before it is ever handed out fresh again.  An :meth:`acquire` at
    ``after`` is served, in this order, by

    1. a buffered link whose swap has finished by ``after`` (the freshest);
    2. else the link whose buffering swap finishes first after ``after``;
    3. else the first success after ``max(after, frontier)`` that was not
       already consumed, taken straight from the communication qubits.
    """

    def __init__(
        self,
        generator: EntanglementGenerator,
        buffer_capacity: int,
        kappa: float,
        initial_fidelity: float = GateFidelities.epr_pair,
        swap_latency: float = 1.0,
        buffer_cutoff: Optional[float] = None,
        prefill: int = 0,
        node_pair: Tuple[int, int] = (0, 1),
    ) -> None:
        if kappa < 0:
            raise EntanglementError("decoherence rate must be non-negative")
        if swap_latency < 0:
            raise EntanglementError("swap latency must be non-negative")
        if not (0.0 < initial_fidelity <= 1.0):
            raise EntanglementError("initial fidelity must be in (0, 1]")
        if node_pair[0] == node_pair[1]:
            raise EntanglementError("a link must connect two different nodes")
        if prefill < 0:
            raise EntanglementError("prefill count must be non-negative")
        if prefill > buffer_capacity:
            raise EntanglementError(
                "cannot pre-fill more links than the buffer capacity"
            )
        self.generator = generator
        self.buffer = BufferPool(buffer_capacity, cutoff=buffer_cutoff)
        self.kappa = kappa
        self.initial_fidelity = initial_fidelity
        self.swap_latency = swap_latency
        self.node_pair = (min(node_pair), max(node_pair))
        self.statistics = ServiceStatistics()
        #: The frontier: the latest time any query has reached.
        self._materialized_until = 0.0
        #: (pair, attempt) of successes consumed directly, ahead of the
        #: frontier; the advance that reaches one drops it (unless the
        #: attempt bound skips it there, which leaves an inert key).
        self._delivered: set = set()
        self.buffer.store_all([(0.0, 0.0)] * prefill)

    # ------------------------------------------------------------------
    # forward simulation
    # ------------------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Materialise all generation successes up to ``time``.

        Successes are stored into the buffer (or wasted when it is full or
        absent), walked by tape index from
        :meth:`EntanglementGenerator.indices_between`.  Advancing to a time
        at or before the frontier is a no-op.
        """
        start = self._materialized_until
        if time <= start + 1e-12:
            return
        self._materialized_until = time
        generator = self.generator
        indices = generator.indices_between(start, time)
        if indices:
            times = generator.times
            delivered = self._delivered
            swap_latency = self.swap_latency
            links = []
            for index in indices:
                if delivered:
                    key = (generator.pairs[index], generator.attempts[index])
                    if key in delivered:
                        delivered.remove(key)
                        continue
                created = times[index]
                links.append((created, created + swap_latency))
            self.statistics.generated_total += len(links)
            self.buffer.store_all(links)
        self.buffer.expire_until(time)

    def count_available(self, time: float) -> int:
        """Number of buffered links available for consumption at ``time``."""
        self.advance_to(time)
        return self.buffer.count_available(time)

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def acquire(self, after: float) -> Tuple[float, float, float]:
        """Consume one link for a remote gate that becomes ready at ``after``.

        Returns ``(start, link_created_time, link_fidelity_at_start)``:
        ``start >= after`` is when the link is in hand (already buffered,
        or freshly generated while the gate waits), and the fidelity is the
        link's Werner fidelity after idling from creation until ``start``.
        """
        if after < 0:
            raise EntanglementError("acquisition time must be non-negative")
        if after > self._materialized_until + 1e-12:  # else a no-op
            self.advance_to(after)
        taken = self.buffer.take(after)
        statistics = self.statistics
        if taken is not None:
            start, created, age = taken
            statistics.consumed_from_buffer += 1
        else:
            generator = self.generator
            frontier = self._materialized_until
            index = generator.first_fresh_index(
                after if after >= frontier else frontier, self._delivered)
            self._delivered.add((generator.pairs[index],
                                 generator.attempts[index]))
            created = generator.times[index]
            start = after if after >= created else created
            age = start - created
            age = age if age > 0.0 else 0.0
            statistics.generated_total += 1
            statistics.consumed_direct += 1
        return start, created, werner_fidelity_after(
            self.initial_fidelity, age, self.kappa)

    # ------------------------------------------------------------------
    # end-of-run accounting
    # ------------------------------------------------------------------
    def finalize(self, time: float) -> None:
        """Flush remaining buffered links at the end of the program."""
        self.advance_to(time)
        self.buffer.flush(time)

    @property
    def total_wasted(self) -> int:
        """Links generated (or pre-filled) but never consumed."""
        return self.buffer.statistics.wasted_total
