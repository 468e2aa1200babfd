"""Named benchmark suite reproducing Table I of the paper.

The registry maps the six benchmark names used in the evaluation section
(TLIM-32, QAOA-r4-32, QAOA-r8-32, QFT-32, QAOA-r4-64, QAOA-r8-64) to
deterministic circuit builders, together with the gate-count properties the
paper reports.  Our QAOA instances are drawn from the same random-regular
families but are not the authors' exact graph instances, so their local vs
remote splits match Table I in magnitude rather than exactly; TLIM and QFT
match exactly.

Beyond Table I, the three benchmark *families* synthesise further sizes on
demand: any name of the form ``TLIM-<n>``, ``QFT-<n>``, or
``QAOA-r<d>-<n>`` resolves to a deterministic circuit of that size (e.g.
``QAOA-r4-16`` for quick CI studies), without appearing in
:func:`list_benchmarks` — the listing stays the Table I suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.benchmarks.qaoa import qaoa_regular_circuit
from repro.benchmarks.qft import qft_circuit
from repro.benchmarks.tlim import tlim_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import BenchmarkError

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "get_benchmark",
    "build_benchmark",
    "list_benchmarks",
    "register_benchmark",
    "benchmark_properties",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Description of one named benchmark.

    Attributes
    ----------
    name:
        Benchmark name as used in the paper.
    num_qubits:
        Data-qubit count (also the circuit register size).
    builder:
        Zero-argument callable producing the circuit.
    paper_local_2q / paper_remote_2q / paper_1q / paper_depth:
        Values reported in Table I of the paper, kept for the comparison
        report (``None`` where the paper does not report a value).
    description:
        One-line human description.

    Example
    -------
    >>> spec = BenchmarkSpec("GHZ-4", 4, lambda: ghz_circuit(4))  # doctest: +SKIP
    >>> spec.build().num_qubits  # doctest: +SKIP
    4
    """

    name: str
    num_qubits: int
    builder: Callable[[], QuantumCircuit]
    paper_local_2q: Optional[int] = None
    paper_remote_2q: Optional[int] = None
    paper_1q: Optional[int] = None
    paper_depth: Optional[int] = None
    description: str = ""

    def build(self) -> QuantumCircuit:
        """Construct the benchmark circuit."""
        circuit = self.builder()
        circuit.name = self.name
        return circuit


def _spec_list() -> List[BenchmarkSpec]:
    return [
        BenchmarkSpec(
            name="TLIM-32",
            num_qubits=32,
            builder=lambda: tlim_circuit(32, num_steps=10),
            paper_local_2q=300,
            paper_remote_2q=10,
            paper_1q=640,
            paper_depth=40,
            description="1D transverse-longitudinal Ising quench, 10 Trotter steps",
        ),
        BenchmarkSpec(
            name="QAOA-r4-32",
            num_qubits=32,
            builder=lambda: qaoa_regular_circuit(32, 4, layers=1, seed=7),
            paper_local_2q=52,
            paper_remote_2q=12,
            paper_1q=64,
            paper_depth=21,
            description="QAOA MaxCut on a random 4-regular graph, 32 vertices",
        ),
        BenchmarkSpec(
            name="QAOA-r8-32",
            num_qubits=32,
            builder=lambda: qaoa_regular_circuit(32, 8, layers=1, seed=11),
            paper_local_2q=91,
            paper_remote_2q=34,
            paper_1q=64,
            paper_depth=64,
            description="QAOA MaxCut on a random 8-regular graph, 32 vertices",
        ),
        BenchmarkSpec(
            name="QFT-32",
            num_qubits=32,
            builder=lambda: qft_circuit(32),
            paper_local_2q=240,
            paper_remote_2q=256,
            paper_1q=32,
            paper_depth=63,
            description="32-qubit quantum Fourier transform (all-to-all)",
        ),
        BenchmarkSpec(
            name="QAOA-r4-64",
            num_qubits=64,
            builder=lambda: qaoa_regular_circuit(64, 4, layers=1, seed=13),
            paper_local_2q=104,
            paper_remote_2q=28,
            paper_1q=128,
            paper_depth=24,
            description="QAOA MaxCut on a random 4-regular graph, 64 vertices",
        ),
        BenchmarkSpec(
            name="QAOA-r8-64",
            num_qubits=64,
            builder=lambda: qaoa_regular_circuit(64, 8, layers=1, seed=17),
            paper_local_2q=174,
            paper_remote_2q=82,
            paper_1q=128,
            paper_depth=84,
            description="QAOA MaxCut on a random 8-regular graph, 64 vertices",
        ),
    ]


BENCHMARKS: Dict[str, BenchmarkSpec] = {spec.name: spec for spec in _spec_list()}


def list_benchmarks() -> List[str]:
    """Names of all registered benchmarks, in Table I order.

    Example
    -------
    >>> from repro.benchmarks.registry import list_benchmarks
    >>> "TLIM-32" in list_benchmarks()
    True
    """
    return list(BENCHMARKS)


def register_benchmark(spec: BenchmarkSpec,
                       overwrite: bool = False) -> BenchmarkSpec:
    """Register a benchmark spec under its name.

    The entry-point for third-party workloads: once registered, the name is
    usable everywhere a Table I benchmark is — ``Study(benchmarks=...)``,
    spec files, and the CLI.  Returns the spec for call-site chaining.

    Example
    -------
    ::

        from repro import api

        api.register_benchmark(api.BenchmarkSpec(
            name="GHZ-8", num_qubits=8, builder=build_ghz_circuit,
            description="8-qubit GHZ state preparation"))
        Study(benchmarks="GHZ-8", num_runs=5).run()
    """
    if not spec.name:
        raise BenchmarkError("benchmark spec needs a non-empty name")
    existing = next((key for key in BENCHMARKS
                     if key.lower() == spec.name.lower()), None)
    if existing is not None and not overwrite:
        raise BenchmarkError(
            f"benchmark {spec.name!r} is already registered; pass "
            f"overwrite=True to replace it"
        )
    if existing is not None:
        del BENCHMARKS[existing]
    BENCHMARKS[spec.name] = spec
    return spec


#: Synthesised family specs, memoised so repeated lookups share one spec.
_FAMILY_CACHE: Dict[str, BenchmarkSpec] = {}

_TLIM_RE = re.compile(r"tlim-(\d+)$")
_QFT_RE = re.compile(r"qft-(\d+)$")
_QAOA_RE = re.compile(r"qaoa-r(\d+)-(\d+)$")


def _family_spec(name: str) -> Optional[BenchmarkSpec]:
    """Synthesise a spec for a family name (``TLIM-<n>`` etc.), or ``None``.

    Instances are deterministic per name: TLIM uses 10 Trotter steps like
    Table I, QFT is parameter-free, and QAOA draws its random-regular graph
    from seed ``degree`` (the Table I entries keep their own seeds because
    registry names take precedence over family synthesis).
    """
    key = name.lower()
    cached = _FAMILY_CACHE.get(key)
    if cached is not None:
        return cached

    match = _TLIM_RE.fullmatch(key)
    if match:
        size = int(match.group(1))
        spec = BenchmarkSpec(
            name=f"TLIM-{size}",
            num_qubits=size,
            builder=lambda: tlim_circuit(size, num_steps=10),
            description=f"TLIM family member ({size} qubits, not in Table I)",
        )
        return _FAMILY_CACHE.setdefault(key, spec)

    match = _QFT_RE.fullmatch(key)
    if match:
        size = int(match.group(1))
        spec = BenchmarkSpec(
            name=f"QFT-{size}",
            num_qubits=size,
            builder=lambda: qft_circuit(size),
            description=f"QFT family member ({size} qubits, not in Table I)",
        )
        return _FAMILY_CACHE.setdefault(key, spec)

    match = _QAOA_RE.fullmatch(key)
    if match:
        degree, size = int(match.group(1)), int(match.group(2))
        spec = BenchmarkSpec(
            name=f"QAOA-r{degree}-{size}",
            num_qubits=size,
            builder=lambda: qaoa_regular_circuit(size, degree, layers=1,
                                                 seed=degree),
            description=f"QAOA MaxCut family member ({degree}-regular, "
                        f"{size} vertices, not in Table I)",
        )
        return _FAMILY_CACHE.setdefault(key, spec)
    return None


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark spec by (case-insensitive) name.

    Table I names resolve to their registry entries; other members of the
    TLIM / QAOA / QFT families (e.g. ``QAOA-r4-16``) are synthesised on
    demand.  Invalid sizes surface as :class:`BenchmarkError` when the
    circuit is built.

    Example
    -------
    >>> from repro.benchmarks.registry import get_benchmark
    >>> get_benchmark("qaoa-r4-16").num_qubits
    16
    """
    for key, spec in BENCHMARKS.items():
        if key.lower() == name.lower():
            return spec
    family = _family_spec(name)
    if family is not None:
        return family
    raise BenchmarkError(
        f"unknown benchmark {name!r}; available: {', '.join(BENCHMARKS)} "
        f"plus family names TLIM-<n>, QAOA-r<d>-<n>, QFT-<n>"
    )


def build_benchmark(name: str) -> QuantumCircuit:
    """Build the circuit for a named benchmark.

    Example
    -------
    >>> from repro.benchmarks.registry import build_benchmark
    >>> build_benchmark("QFT-16").num_qubits
    16
    """
    return get_benchmark(name).build()


def benchmark_properties(name: str) -> Dict[str, int]:
    """Structural properties of a benchmark circuit (Table I columns).

    The remote/local two-qubit split requires a partition and is computed by
    :mod:`repro.partitioning.assigner`; this function reports the
    partition-independent columns.
    """
    circuit = build_benchmark(name)
    return {
        "qubits": circuit.num_qubits,
        "two_qubit": circuit.num_two_qubit_gates(),
        "single_qubit": circuit.num_single_qubit_gates(),
        "depth": int(circuit.depth()),
    }
