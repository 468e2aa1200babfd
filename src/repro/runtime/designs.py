"""The six architecture designs compared in the paper's evaluation.

Each design is a configuration of the same executor:

========== ======== ============ ========== ========= =====================
name       buffers  attempt mode adaptive   pre-init  notes
========== ======== ============ ========== ========= =====================
original   no       on-demand    no         no        EPR pairs cannot be
                                                       stored; remote gates
                                                       wait for generation
sync_buf   yes      synchronous  no         no        bursts at multiples
                                                       of T_EG
async_buf  yes      asynchronous no         no        staggered sub-groups
adapt_buf  yes      asynchronous yes        no        ASAP/ALAP lookup
init_buf   yes      asynchronous yes        yes       buffers pre-filled
ideal      —        —            —          —         monolithic execution,
                                                       no remote gates
========== ======== ============ ========== ========= =====================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.entanglement.attempts import AttemptPolicy
from repro.exceptions import ConfigurationError

__all__ = ["DesignSpec", "DESIGNS", "get_design", "list_designs",
           "register_design"]


@dataclass(frozen=True)
class DesignSpec:
    """Configuration of one architecture design.

    Attributes
    ----------
    name:
        Design name as used in the paper's figures.
    use_buffer:
        Whether successful EPR pairs can be stored in buffer qubits.
    attempt_policy:
        Synchronous or asynchronous entanglement-generation attempts.
    adaptive_scheduling:
        Whether the ASAP/ALAP lookup table drives segment selection.
    prefill_buffers:
        Whether buffers start pre-filled with EPR pairs (``init_buf``).
    ideal:
        Monolithic execution: every gate is local and no entanglement is
        needed (lower bound reference).
    buffer_cutoff:
        Optional storage cutoff for buffered links (ablation knob).
    async_groups:
        Optional override of the number of asynchronous sub-groups.
    """

    name: str
    use_buffer: bool
    attempt_policy: AttemptPolicy
    adaptive_scheduling: bool = False
    prefill_buffers: bool = False
    ideal: bool = False
    buffer_cutoff: Optional[float] = None
    async_groups: Optional[int] = None

    def __post_init__(self) -> None:
        if self.prefill_buffers and not self.use_buffer:
            raise ConfigurationError("cannot pre-fill buffers without buffers")
        if self.ideal and (self.use_buffer or self.adaptive_scheduling):
            raise ConfigurationError("the ideal design uses no DQC machinery")

    def with_overrides(self, **changes) -> "DesignSpec":
        """Return a copy with some fields replaced (ablation studies).

        Example
        -------
        >>> from repro.runtime.designs import get_design
        >>> cutoff = get_design("adapt_buf").with_overrides(
        ...     name="adapt_cutoff", buffer_cutoff=40.0)
        >>> cutoff.buffer_cutoff
        40.0
        """
        return replace(self, **changes)


def _builtin_designs() -> Dict[str, DesignSpec]:
    return {
        "original": DesignSpec(
            name="original",
            use_buffer=False,
            attempt_policy=AttemptPolicy.SYNCHRONOUS,
        ),
        "sync_buf": DesignSpec(
            name="sync_buf",
            use_buffer=True,
            attempt_policy=AttemptPolicy.SYNCHRONOUS,
        ),
        "async_buf": DesignSpec(
            name="async_buf",
            use_buffer=True,
            attempt_policy=AttemptPolicy.ASYNCHRONOUS,
        ),
        "adapt_buf": DesignSpec(
            name="adapt_buf",
            use_buffer=True,
            attempt_policy=AttemptPolicy.ASYNCHRONOUS,
            adaptive_scheduling=True,
        ),
        "init_buf": DesignSpec(
            name="init_buf",
            use_buffer=True,
            attempt_policy=AttemptPolicy.ASYNCHRONOUS,
            adaptive_scheduling=True,
            prefill_buffers=True,
        ),
        "ideal": DesignSpec(
            name="ideal",
            use_buffer=False,
            attempt_policy=AttemptPolicy.SYNCHRONOUS,
            ideal=True,
        ),
    }


DESIGNS: Dict[str, DesignSpec] = _builtin_designs()

#: Evaluation order used in the paper's figures.
DESIGN_ORDER: List[str] = [
    "original", "sync_buf", "async_buf", "adapt_buf", "init_buf", "ideal",
]


def list_designs() -> List[str]:
    """Design names in the paper's figure order.

    Example
    -------
    >>> from repro.runtime.designs import list_designs
    >>> list_designs()[0], list_designs()[-1]
    ('original', 'ideal')
    """
    return list(DESIGN_ORDER)


def get_design(name: str) -> DesignSpec:
    """Look up a design spec by (case-insensitive) name.

    Example
    -------
    >>> from repro.runtime.designs import get_design
    >>> get_design("adapt_buf").adaptive_scheduling
    True
    """
    key = name.lower()
    if key not in DESIGNS:
        raise ConfigurationError(
            f"unknown design {name!r}; available: {', '.join(DESIGN_ORDER)}"
        )
    return DESIGNS[key]


def register_design(spec: DesignSpec, overwrite: bool = False) -> DesignSpec:
    """Register a design spec under its (lower-cased) name.

    The entry-point for third-party architecture variants: once registered,
    the name works everywhere a built-in design does —
    ``Study(designs=[...])``, spec files, and the CLI — and it joins
    :func:`list_designs` after the paper's six.  For one-off ablations,
    passing an explicit :class:`DesignSpec` (e.g. from
    :meth:`DesignSpec.with_overrides`) needs no registration at all.
    Returns the spec for call-site chaining.

    Example
    -------
    ::

        from repro import api

        cutoff = api.get_design("adapt_buf").with_overrides(
            name="adapt_cutoff", buffer_cutoff=40.0)
        api.register_design(cutoff)
        Study(benchmarks="TLIM-32", designs=["adapt_buf", "adapt_cutoff"],
              num_runs=10).run()
    """
    key = spec.name.lower()
    if not key:
        raise ConfigurationError("design spec needs a non-empty name")
    if key in DESIGNS and not overwrite:
        raise ConfigurationError(
            f"design {spec.name!r} is already registered; pass "
            f"overwrite=True to replace it"
        )
    DESIGNS[key] = spec
    if key not in DESIGN_ORDER:
        DESIGN_ORDER.append(key)
    return spec
