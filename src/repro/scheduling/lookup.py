"""Pre-compiled schedule lookup table.

At run time the DQC controller cannot afford to resynthesise the circuit, so
the paper pre-compiles the ASAP/ALAP variants of every segment and keeps a
lookup table keyed by the number of available EPR pairs ``e``:

* ``e > m``  → use the ASAP variant (consume the surplus immediately),
* ``e == 0`` → use the ALAP variant (give generation time to catch up),
* otherwise  → keep the original schedule.
"""

from __future__ import annotations

from typing import List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.scheduling.policies import AdaptivePolicy
from repro.scheduling.segmentation import CircuitSegment, segment_circuit
from repro.scheduling.variants import SegmentVariants, compile_segment_variants
from repro.exceptions import SchedulingError

__all__ = ["ScheduleLookupTable", "build_lookup_table"]


class ScheduleLookupTable:
    """Pre-compiled segment variants plus the run-time selection rule.

    Read-only once built: compiled cells share one table through the
    artifact cache, and each executor counts its own run's choices.

    Parameters
    ----------
    variants:
        One :class:`SegmentVariants` per circuit segment, in order.
    policy:
        The adaptive thresholds (defaults to the paper's rule with
        ``m = segment length``).
    """

    def __init__(self, variants: List[SegmentVariants],
                 policy: Optional[AdaptivePolicy] = None) -> None:
        if not variants:
            raise SchedulingError("lookup table needs at least one segment")
        self.variants = variants
        self.policy = policy or AdaptivePolicy()

    # ------------------------------------------------------------------
    @property
    def num_segments(self) -> int:
        """Number of segments in the table."""
        return len(self.variants)

    def segment(self, index: int) -> CircuitSegment:
        """The underlying segment at ``index``."""
        return self.variants[index].segment

    def variant_for(self, segment_index: int, available_epr: int) -> str:
        """The variant name the selection rule picks for a segment, given
        the buffered EPR count; ``variants[i].get(name)`` is its ordering.
        """
        if not (0 <= segment_index < self.num_segments):
            raise SchedulingError(f"segment index {segment_index} out of range")
        threshold = self.policy.effective_threshold(
            self.variants[segment_index].segment.num_remote
        )
        return self.policy.choose(available_epr, threshold)


def build_lookup_table(circuit: QuantumCircuit, remote_gates_per_segment: int,
                       policy: Optional[AdaptivePolicy] = None) -> ScheduleLookupTable:
    """Segment a remote-labelled circuit and pre-compile all variants."""
    segments = segment_circuit(circuit, remote_gates_per_segment)
    variants = [compile_segment_variants(segment) for segment in segments]
    return ScheduleLookupTable(variants, policy=policy)
