"""Execution-time resource tracking.

Two trackers back the executors:

* :class:`DataQubitTracker` — per-data-qubit availability and busy/idle
  accounting.  Data qubits within a node are fully connected (paper
  evaluation setting), so availability is the only constraint on local gates.
* :class:`EntanglementDirectory` — one
  :class:`~repro.entanglement.service.EntanglementService` per connected node
  pair, created from the architecture and the design configuration; its
  generators read their variates from an optional shared
  :class:`~repro.entanglement.generator.VariateTable`.  What a node pair's
  service is built from apart from the seed (attempt schedule, link and
  buffer counts, connectivity check) is worked out once per directory and
  shared with the per-seed directories :meth:`EntanglementDirectory.for_seed`
  derives, so a batch of runs builds it once.
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.entanglement.attempts import AttemptPolicy, AttemptSchedule
from repro.entanglement.generator import EntanglementGenerator, VariateTable
from repro.entanglement.service import EntanglementService
from repro.hardware.architecture import DQCArchitecture
from repro.exceptions import RuntimeSimulationError

__all__ = ["DataQubitTracker", "EntanglementDirectory", "idle_total"]

NodePair = Tuple[int, int]


def idle_total(horizon: float, busy: List[float],
               first_use: List[Optional[float]]) -> float:
    """Summed idle time of the used qubits from first use to ``horizon``.

    A qubit idles for its span from first use to ``horizon`` less its busy
    time, floored at zero.  The positive idle times are added in qubit
    order, left to right from ``0.0``: both execution cores total idle time
    here, and Python 3.12's compensated ``sum()`` would round differently.
    """
    total = 0.0
    for first, busy_time in zip(first_use, busy):
        if first is None:
            continue
        span = horizon - first
        if span < 0.0:
            span = 0.0
        idle = span - busy_time
        if idle > 0.0:
            total += idle
    return total


class DataQubitTracker:
    """Tracks when each data (program) qubit becomes free.

    Qubits are identified by their *program* index (the circuit qubit), not
    by physical location; the mapping to nodes is carried by the
    :class:`~repro.partitioning.assigner.DistributedProgram`.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise RuntimeSimulationError("tracker needs at least one qubit")
        self.num_qubits = num_qubits
        self._available = [0.0] * num_qubits
        self._busy = [0.0] * num_qubits
        self._first_use: List[Optional[float]] = [None] * num_qubits
        self._last_release = [0.0] * num_qubits

    # ------------------------------------------------------------------
    def available_time(self, qubit: int) -> float:
        """Earliest time the qubit is free."""
        self._check(qubit)
        return self._available[qubit]

    def earliest_start(self, qubits) -> float:
        """Earliest common start time for a gate on ``qubits``."""
        return max((self.available_time(q) for q in qubits), default=0.0)

    def occupy(self, qubits, start: float, duration: float) -> float:
        """Mark ``qubits`` busy from ``start`` for ``duration``; returns finish."""
        if duration < 0:
            raise RuntimeSimulationError("gate duration must be non-negative")
        for qubit in qubits:
            self._check(qubit)
            if start < self._available[qubit] - 1e-9:
                raise RuntimeSimulationError(
                    f"qubit {qubit} is busy until {self._available[qubit]}, "
                    f"cannot start at {start}"
                )
        finish = start + duration
        for qubit in qubits:
            if self._first_use[qubit] is None:
                self._first_use[qubit] = start
            self._available[qubit] = finish
            self._busy[qubit] += duration
            self._last_release[qubit] = finish
        return finish

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Latest qubit release time (total circuit latency so far)."""
        return max(self._available, default=0.0)

    def busy_time(self, qubit: int) -> float:
        """Total time the qubit spent executing gates."""
        self._check(qubit)
        return self._busy[qubit]

    def idle_time(self, qubit: int, horizon: Optional[float] = None) -> float:
        """Idle time of an *initialised* qubit up to ``horizon``.

        A qubit is considered initialised from its first use; idle time is
        the span from first use to ``horizon`` (default: the makespan) minus
        its busy time.  Unused qubits contribute zero.
        """
        self._check(qubit)
        if self._first_use[qubit] is None:
            return 0.0
        end = self.makespan if horizon is None else horizon
        span = max(0.0, end - self._first_use[qubit])
        return max(0.0, span - self._busy[qubit])

    def total_idle_time(self, horizon: Optional[float] = None) -> float:
        """Sum of idle times over all qubits (see :func:`idle_total`)."""
        return idle_total(self.makespan if horizon is None else horizon,
                          self._busy, self._first_use)

    def utilisation(self) -> float:
        """Mean busy fraction of qubits that were used at least once."""
        makespan = self.makespan
        if makespan <= 0:
            return 0.0
        used = [q for q in range(self.num_qubits) if self._first_use[q] is not None]
        if not used:
            return 0.0
        return sum(self._busy[q] for q in used) / (makespan * len(used))

    def _check(self, qubit: int) -> None:
        if not (0 <= qubit < self.num_qubits):
            raise RuntimeSimulationError(f"qubit index {qubit} out of range")


class _PairSetup(NamedTuple):
    """What one node pair's service is built from, fixed per directory."""

    schedule: AttemptSchedule
    capacity: int
    prefill: int
    seed_offset: int


class EntanglementDirectory:
    """One entanglement service per connected node pair.

    Parameters
    ----------
    architecture:
        The hardware description (node counts, Table II parameters).
    attempt_policy:
        Synchronous or asynchronous attempt phasing.
    use_buffer:
        Whether generated links can be stored (False reproduces ``original``).
    prefill:
        Whether buffers start full (``init_buf``).
    buffer_cutoff:
        Optional storage cutoff for buffered links.
    seed:
        Base seed; every node pair derives an independent sub-seed.
    variates:
        Table the generators read their variates from; ``None`` gives each
        generator a private one.  Results are the same either way.

    What a node pair's service is built from apart from the seed — its
    attempt schedule, link and buffer counts and sub-seed offset — depends
    only on the architecture and the design.  It is worked out once per
    node pair and shared with every directory :meth:`for_seed` derives, so
    an executor replaying a batch of seeds builds it once per batch.
    """

    def __init__(
        self,
        architecture: DQCArchitecture,
        attempt_policy: AttemptPolicy = AttemptPolicy.ASYNCHRONOUS,
        use_buffer: bool = True,
        prefill: bool = False,
        buffer_cutoff: Optional[float] = None,
        seed: int = 0,
        async_groups: Optional[int] = None,
        variates: Optional[VariateTable] = None,
    ) -> None:
        self.architecture = architecture
        self.attempt_policy = attempt_policy
        self.use_buffer = use_buffer
        self.prefill = prefill
        self.buffer_cutoff = buffer_cutoff
        self.seed = seed
        self.async_groups = async_groups
        self.variates = variates
        self._setups: Dict[NodePair, _PairSetup] = {}
        self._services: Dict[NodePair, EntanglementService] = {}

    def for_seed(self, seed: int) -> "EntanglementDirectory":
        """A directory for run seed ``seed``, with no services yet.

        It shares this directory's configuration, variate table and
        per-pair setup.
        """
        directory = copy.copy(self)
        directory.seed = seed
        directory._services = {}
        return directory

    # ------------------------------------------------------------------
    def service(self, node_a: int, node_b: int) -> EntanglementService:
        """The service connecting two nodes (created lazily)."""
        pair = (min(node_a, node_b), max(node_a, node_b))
        if pair not in self._services:
            self._services[pair] = self._build_service(pair)
        return self._services[pair]

    def services(self) -> Dict[NodePair, EntanglementService]:
        """All services created so far."""
        return dict(self._services)

    def _pair_setup(self, pair: NodePair) -> _PairSetup:
        architecture = self.architecture
        if not architecture.are_connected(*pair):
            raise RuntimeSimulationError(
                f"nodes {pair} are not connected by an interconnect link"
            )
        num_pairs = architecture.comm_pairs_between(*pair)
        if num_pairs == 0:
            raise RuntimeSimulationError(
                f"no communication qubits available between nodes {pair}"
            )
        times = architecture.gate_times
        groups = self.async_groups
        if groups is None:
            # Default: spread sub-groups over one full generation cycle,
            # staggered by one local-gate time (Fig. 3).
            groups = max(1, int(round(times.epr_generation_cycle / max(
                times.local_cnot, 1e-9))))
        schedule = AttemptSchedule(
            num_pairs=num_pairs,
            cycle_time=times.epr_generation_cycle,
            policy=self.attempt_policy,
            num_groups=groups,
            stagger=times.local_cnot,
        )
        capacity = (
            architecture.buffer_capacity_between(*pair) if self.use_buffer else 0
        )
        return _PairSetup(
            schedule=schedule,
            capacity=capacity,
            prefill=capacity if (self.prefill and self.use_buffer) else 0,
            seed_offset=1009 * (pair[0] * architecture.num_nodes + pair[1]),
        )

    def _build_service(self, pair: NodePair) -> EntanglementService:
        setup = self._setups.get(pair)
        if setup is None:
            setup = self._setups[pair] = self._pair_setup(pair)
        architecture = self.architecture
        generator = EntanglementGenerator(
            setup.schedule,
            success_probability=architecture.physics.epr_success_probability,
            seed=self.seed + setup.seed_offset,
            variates=self.variates,
        )
        return EntanglementService(
            generator=generator,
            buffer_capacity=setup.capacity,
            kappa=architecture.decoherence_rate,
            initial_fidelity=architecture.fidelities.epr_pair,
            swap_latency=architecture.gate_times.swap,
            buffer_cutoff=self.buffer_cutoff,
            prefill=setup.prefill,
            node_pair=pair,
        )

    # ------------------------------------------------------------------
    def count_available(self, node_a: int, node_b: int, time: float) -> int:
        """Buffered EPR pairs available between two nodes at ``time``."""
        return self.service(node_a, node_b).count_available(time)

    def finalize(self, time: float) -> None:
        """Flush all services at the end of a run."""
        for service in self._services.values():
            service.finalize(time)

    def aggregate_statistics(self) -> Dict[str, float]:
        """Summed generation / consumption / waste counters over all pairs."""
        totals = {
            "generated": 0,
            "consumed_from_buffer": 0,
            "consumed_direct": 0,
            "wasted": 0,
        }
        for service in self._services.values():
            totals["generated"] += service.statistics.generated_total
            totals["consumed_from_buffer"] += service.statistics.consumed_from_buffer
            totals["consumed_direct"] += service.statistics.consumed_direct
            totals["wasted"] += service.total_wasted
        return totals
