"""ASAP / ALAP segment variants.

Each circuit segment is pre-compiled into three equivalent orderings
(Sec. III-D, Fig. 4):

* ``original`` — the order produced by the partitioner,
* ``asap`` — remote gates commuted as early as possible, so that already
  buffered EPR pairs are consumed immediately, and
* ``alap`` — remote gates commuted as late as possible, giving the
  entanglement-generation service more time before the remote gates demand
  pairs.

The rewrites only swap commuting gates, so all three variants implement the
same unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.transforms import alap_variant, asap_variant, reorder_is_equivalent
from repro.scheduling.segmentation import CircuitSegment
from repro.exceptions import SchedulingError

__all__ = ["SchedulingVariant", "SegmentVariants", "compile_segment_variants"]


class SchedulingVariant:
    """Names of the pre-compiled segment orderings."""

    ORIGINAL = "original"
    ASAP = "asap"
    ALAP = "alap"

    ALL = (ORIGINAL, ASAP, ALAP)


@dataclass
class SegmentVariants:
    """The three pre-compiled orderings of one circuit segment."""

    segment: CircuitSegment
    original: QuantumCircuit
    asap: QuantumCircuit
    alap: QuantumCircuit

    def get(self, variant: str) -> QuantumCircuit:
        """Return the circuit for a variant name."""
        if variant == SchedulingVariant.ORIGINAL:
            return self.original
        if variant == SchedulingVariant.ASAP:
            return self.asap
        if variant == SchedulingVariant.ALAP:
            return self.alap
        raise SchedulingError(f"unknown scheduling variant {variant!r}")

    def verify_equivalence(self) -> bool:
        """Check that ASAP and ALAP are commutation-legal reorderings."""
        return reorder_is_equivalent(self.original, self.asap) and \
            reorder_is_equivalent(self.original, self.alap)


def compile_segment_variants(segment: CircuitSegment) -> SegmentVariants:
    """Pre-compile the ASAP and ALAP orderings of one segment."""
    original = segment.circuit
    return SegmentVariants(
        segment=segment,
        original=original,
        asap=asap_variant(original),
        alap=alap_variant(original),
    )
