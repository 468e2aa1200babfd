"""Remote-gate scheduling policies.

Encodes the run-time decision rule of the adaptive scheduler (Sec. III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.scheduling.variants import SchedulingVariant
from repro.exceptions import SchedulingError

__all__ = ["AdaptivePolicy"]


@dataclass(frozen=True)
class AdaptivePolicy:
    """Threshold rule selecting a segment variant from the EPR count ``e``.

    Attributes
    ----------
    asap_threshold:
        Select ASAP when ``e > asap_threshold``.  ``None`` (default) means
        "use the segment's own remote-gate count ``m``", which is the paper's
        rule.
    alap_threshold:
        Select ALAP when ``e <= alap_threshold`` (0 in the paper).
    """

    asap_threshold: Optional[int] = None
    alap_threshold: int = 0

    def __post_init__(self) -> None:
        if self.asap_threshold is not None and self.asap_threshold < 0:
            raise SchedulingError("ASAP threshold must be non-negative")
        if self.alap_threshold < 0:
            raise SchedulingError("ALAP threshold must be non-negative")
        if self.asap_threshold is not None and self.asap_threshold < self.alap_threshold:
            raise SchedulingError("ASAP threshold cannot be below the ALAP threshold")

    def effective_threshold(self, segment_remote_count: int) -> int:
        """The ASAP threshold actually used for a segment with ``m`` remote gates."""
        if self.asap_threshold is not None:
            return self.asap_threshold
        return max(self.alap_threshold, segment_remote_count)

    def choose(self, available_epr: int, threshold: int) -> str:
        """Apply the decision rule and return a variant name."""
        if available_epr < 0:
            raise SchedulingError("available EPR count must be non-negative")
        if available_epr > threshold:
            return SchedulingVariant.ASAP
        if available_epr <= self.alap_threshold:
            return SchedulingVariant.ALAP
        return SchedulingVariant.ORIGINAL
