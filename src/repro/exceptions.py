"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class CircuitError(ReproError):
    """Raised for malformed circuits or invalid gate applications."""


class GateError(CircuitError):
    """Raised when a gate is constructed or applied incorrectly."""


class DAGError(CircuitError):
    """Raised for inconsistencies in the circuit dependency DAG."""


class PartitionError(ReproError):
    """Raised when a qubit partition is infeasible or invalid."""


class ArchitectureError(ReproError):
    """Raised for invalid hardware architecture configurations."""


class TopologyError(ArchitectureError):
    """Raised for invalid, mismatched, or disconnected interconnect topologies."""


class EntanglementError(ReproError):
    """Raised for invalid entanglement-generation configurations or states."""


class BufferError(EntanglementError):
    """Raised when buffer-pool operations are invalid (e.g. overfull)."""


class NoiseError(ReproError):
    """Raised for invalid noise channels or density matrices."""


class SchedulingError(ReproError):
    """Raised when adaptive scheduling cannot produce a valid schedule."""


class RuntimeSimulationError(ReproError):
    """Raised when the discrete-event executor reaches an invalid state."""


class ConfigurationError(ReproError):
    """Raised for inconsistent experiment or system configuration."""


class SpecValidationError(ConfigurationError):
    """A study spec failed validation, with a machine-readable payload.

    Raised by :meth:`~repro.study.study.Study.from_spec` so both the CLI
    and the service API can surface *which* part of the spec is wrong —
    ``field`` names the offending spec location (dotted for nested fields,
    e.g. ``"system.num_qubits"``; ``None`` when the error is not tied to
    one field) and ``allowed`` enumerates the acceptable values or field
    names when the set is known.
    """

    def __init__(self, message: str, *, field: "str | None" = None,
                 allowed: "tuple | list | None" = None) -> None:
        super().__init__(message)
        self.field = field
        self.allowed = list(allowed) if allowed is not None else None

    def to_dict(self) -> dict:
        """JSON-friendly payload (the service API's 400 response body)."""
        return {
            "error": "invalid-spec",
            "field": self.field,
            "message": str(self),
            "allowed": self.allowed,
        }


class StoreError(ReproError):
    """Raised for invalid, mismatched, or corrupt durable run stores."""


class StoreWriteError(StoreError):
    """A durable write (shard append, fsync, chunk-log commit) failed.

    Raised by :meth:`~repro.study.store.RunStore.append_chunk` when the
    filesystem rejects a write (``ENOSPC``, I/O error, injected fault).
    The store degrades gracefully: every chunk committed *before* the
    failing one remains durable, and the exception carries the resume
    point so callers (and operators) know exactly where a retry picks up.

    Attributes
    ----------
    errno:
        The OS error number of the underlying failure (``None`` when the
        cause carried none).
    committed_chunks:
        Chunks already committed to the chunk log — all of them survive
        reopen and are skipped on resume.
    committed_runs:
        Total runs covered by the committed chunks (the resume point).
    """

    def __init__(self, message: str, *, errno: "int | None" = None,
                 committed_chunks: int = 0,
                 committed_runs: int = 0) -> None:
        super().__init__(message)
        self.errno = errno
        self.committed_chunks = committed_chunks
        self.committed_runs = committed_runs


class FaultError(ConfigurationError):
    """Raised for malformed ``REPRO_FAULTS`` fault-injection specs."""


class BenchmarkError(ReproError):
    """Raised when a benchmark circuit cannot be generated as requested."""


class MissingDependencyError(ReproError, ImportError):
    """An optional helper needs a package that is not installed.

    The message names the package and the ``pip`` extra that installs it;
    the core simulator never raises this.
    """
