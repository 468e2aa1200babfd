"""Adaptive remote-gate scheduling (the paper's software contribution)."""

from repro.scheduling.lookup import ScheduleLookupTable, build_lookup_table
from repro.scheduling.policies import AdaptivePolicy
from repro.scheduling.segmentation import (
    CircuitSegment,
    default_segment_length,
    segment_circuit,
)
from repro.scheduling.variants import (
    SchedulingVariant,
    SegmentVariants,
    compile_segment_variants,
)

__all__ = [
    "CircuitSegment",
    "segment_circuit",
    "default_segment_length",
    "SchedulingVariant",
    "SegmentVariants",
    "compile_segment_variants",
    "ScheduleLookupTable",
    "build_lookup_table",
    "AdaptivePolicy",
]
