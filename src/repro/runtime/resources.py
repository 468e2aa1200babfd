"""Execution-time resource tracking.

Two trackers back the executors:

* :class:`DataQubitTracker` — per-data-qubit availability.  Data qubits
  within a node are fully connected (paper evaluation setting), so
  availability is the only constraint on local gates.  Idle decoherence is
  charged on the makespan, so no per-qubit busy or idle time is kept.
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
from typing import Dict, NamedTuple, Optional, Tuple

from repro.entanglement.attempts import AttemptPolicy, AttemptSchedule
from repro.entanglement.generator import EntanglementGenerator, VariateTable
from repro.entanglement.service import EntanglementService
from repro.hardware.architecture import DQCArchitecture
from repro.exceptions import RuntimeSimulationError

__all__ = ["DataQubitTracker", "EntanglementDirectory"]

NodePair = Tuple[int, int]


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
            self._available[qubit] = finish
        return finish

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Latest qubit release time (total circuit latency so far)."""
        return max(self._available, default=0.0)

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
