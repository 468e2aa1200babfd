"""Deterministic fault injection: seeded failpoints and the chaos soak.

See :mod:`repro.faults.core` for the failpoint framework and spec grammar,
and :mod:`repro.faults.chaos` for the soak harness behind ``repro chaos``
(``PYTHONPATH=src python -m repro chaos`` from a source checkout).
"""

from repro.faults.core import (
    CRASH_EXIT_CODE,
    FAULTS_ENV_VAR,
    FAULTS_SEED_ENV_VAR,
    SITES,
    FaultAction,
    FaultPlan,
    FaultRule,
    FaultSite,
    InjectedFault,
    crash_now,
    failpoint,
    fault_stats,
    install_faults,
    install_faults_from_env,
    parse_faults,
    uninstall_faults,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULTS_ENV_VAR",
    "FAULTS_SEED_ENV_VAR",
    "SITES",
    "FaultAction",
    "FaultPlan",
    "FaultRule",
    "FaultSite",
    "InjectedFault",
    "crash_now",
    "failpoint",
    "fault_stats",
    "install_faults",
    "install_faults_from_env",
    "parse_faults",
    "uninstall_faults",
]
