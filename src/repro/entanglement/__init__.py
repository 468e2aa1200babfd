"""Remote-entanglement-generation substrate.

Werner states and decay, attempt scheduling (synchronous vs asynchronous),
the stochastic generator and its success tape, buffer pools, and the
interactive supply service used by the runtime.
"""

from repro.entanglement.attempts import AttemptPolicy, AttemptSchedule
from repro.entanglement.buffer import BufferPool, BufferStatistics
from repro.entanglement.generator import EntanglementGenerator, GenerationEvent
from repro.entanglement.service import EntanglementService, ServiceStatistics
from repro.entanglement.werner import WernerState, werner_density_matrix, werner_fidelity_after

__all__ = [
    "AttemptPolicy",
    "AttemptSchedule",
    "BufferPool",
    "BufferStatistics",
    "EntanglementGenerator",
    "GenerationEvent",
    "EntanglementService",
    "ServiceStatistics",
    "WernerState",
    "werner_density_matrix",
    "werner_fidelity_after",
]
