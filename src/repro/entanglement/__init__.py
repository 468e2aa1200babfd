"""Remote-entanglement-generation substrate.

Werner-state decay, attempt scheduling (synchronous vs asynchronous),
the stochastic generator, the variate table whose sources and success tapes
generators share, buffer pools, and the interactive supply service used by
the runtime.
"""

from repro.entanglement.attempts import AttemptPolicy, AttemptSchedule
from repro.entanglement.buffer import BufferPool, BufferStatistics
from repro.entanglement.generator import (
    EntanglementGenerator,
    GenerationEvent,
    VariateTable,
)
from repro.entanglement.service import EntanglementService, ServiceStatistics
from repro.entanglement.werner import werner_density_matrix, werner_fidelity_after

__all__ = [
    "AttemptPolicy",
    "AttemptSchedule",
    "BufferPool",
    "BufferStatistics",
    "EntanglementGenerator",
    "GenerationEvent",
    "EntanglementService",
    "ServiceStatistics",
    "VariateTable",
    "werner_density_matrix",
    "werner_fidelity_after",
]
