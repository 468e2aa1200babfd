"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.benchmarks import build_benchmark, qaoa_regular_circuit, tlim_circuit
from repro.circuits import QuantumCircuit
from repro.core import DQCSimulator, SystemConfig
from repro.entanglement.service import EntanglementService
from repro.hardware import two_node_architecture
from repro.partitioning import distribute_circuit


@pytest.fixture
def bell_circuit() -> QuantumCircuit:
    """Two-qubit Bell-pair preparation circuit."""
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def small_remote_circuit() -> QuantumCircuit:
    """Four-qubit circuit with a mix of local and remote-labelled gates."""
    circuit = QuantumCircuit(4, name="small-remote")
    circuit.h(0)
    circuit.h(2)
    circuit.cx(0, 1)
    circuit.add_gate("cx", (1, 2), label="remote")
    circuit.rz(0.3, 2)
    circuit.add_gate("rzz", (0, 3), (0.5,), label="remote")
    circuit.cx(2, 3)
    return circuit


@pytest.fixture
def tlim8():
    """Small TLIM chain used by fast integration tests."""
    return tlim_circuit(8, num_steps=2)


@pytest.fixture
def qaoa12():
    """Small QAOA instance used by fast integration tests."""
    return qaoa_regular_circuit(12, 4, layers=1, seed=3)


@pytest.fixture
def small_system() -> SystemConfig:
    """A 2-node, 12-data-qubit system that keeps simulations fast."""
    return SystemConfig(
        data_qubits_per_node=6,
        comm_qubits_per_node=4,
        buffer_qubits_per_node=4,
    )


@pytest.fixture
def small_simulator(small_system) -> DQCSimulator:
    """Simulator over the small system."""
    return DQCSimulator(system=small_system)


@pytest.fixture
def small_architecture(small_system):
    """Materialised architecture of the small system."""
    return small_system.build_architecture()


@pytest.fixture
def paper_architecture():
    """The paper's 2-node 32-data-qubit architecture."""
    return two_node_architecture()


@pytest.fixture
def distributed_qaoa12(qaoa12):
    """QAOA-12 partitioned over two nodes."""
    return distribute_circuit(qaoa12, num_nodes=2, seed=0)


@pytest.fixture
def directory_fsyncs(monkeypatch):
    """Count directory fsyncs from here on.

    ``directory_fsyncs(path)`` is how many times ``path`` was fsynced,
    ``directory_fsyncs()`` how many directory fsyncs happened in all.
    """
    import os
    import stat

    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            synced.append((info.st_dev, info.st_ino))
        return real_fsync(fd)

    def count(path=None):
        if path is None:
            return len(synced)
        info = os.stat(path)
        return synced.count((info.st_dev, info.st_ino))

    monkeypatch.setattr(os, "fsync", fsync)
    return count


@pytest.fixture
def acquire_calls(monkeypatch):
    """Every remote gate of every run from here on, in call order.

    Both execution cores look ``EntanglementService.acquire`` up on the
    class for each remote gate, so a class-level wrapper sees all of them:
    one ``(ready, start, created, fidelity)`` tuple per call, the ready
    time in and the link out.
    """
    calls = []
    acquire = EntanglementService.acquire

    def recording(service, after):
        start, created, fidelity = acquire(service, after)
        calls.append((after, start, created, fidelity))
        return start, created, fidelity

    monkeypatch.setattr(EntanglementService, "acquire", recording)
    return calls
