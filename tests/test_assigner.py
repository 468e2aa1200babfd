"""Unit tests for circuit distribution and remote-gate labelling."""

import pytest

from repro.benchmarks import build_benchmark, qft_circuit, tlim_circuit
from repro.circuits import QuantumCircuit
from repro.partitioning import (
    DistributedProgram,
    InteractionGraph,
    Partition,
    distribute_circuit,
    label_remote_gates,
    rebalance_partition,
)
from repro.exceptions import PartitionError


class TestLabelling:
    def test_cross_partition_gates_labelled(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(2, 3)
        partition = Partition.from_blocks([[0, 1], [2, 3]])
        labelled = label_remote_gates(circuit, partition)
        flags = [g.is_remote for g in labelled.gates]
        assert flags == [False, True, False]

    def test_stale_labels_cleared(self):
        circuit = QuantumCircuit(2)
        circuit.add_gate("cx", (0, 1), label="remote")
        partition = Partition.from_blocks([[0, 1]])
        labelled = label_remote_gates(circuit, partition)
        assert not labelled.gates[0].is_remote


class TestDistributeCircuit:
    def test_tlim_remote_count_matches_paper(self):
        program = distribute_circuit(tlim_circuit(32, num_steps=10), num_nodes=2)
        assert program.remote_gate_count() == 10
        assert program.local_two_qubit_count() == 300
        assert program.partition.block_sizes() == [16, 16]

    def test_qft_remote_count_matches_paper(self):
        program = distribute_circuit(qft_circuit(32), num_nodes=2)
        assert program.remote_gate_count() == 256
        assert program.local_two_qubit_count() == 240

    def test_properties_dictionary(self):
        program = distribute_circuit(tlim_circuit(8, num_steps=1), num_nodes=2)
        props = program.properties()
        assert props["qubits"] == 8
        assert props["local_2q"] + props["remote_2q"] == 7

    def test_remote_fraction_and_pairs(self):
        program = distribute_circuit(qft_circuit(8), num_nodes=2)
        assert 0.0 < program.remote_fraction() < 1.0
        assert set(program.remote_pairs()) == {(0, 1)}

    def test_explicit_partition_respected(self):
        circuit = tlim_circuit(8, num_steps=1)
        partition = Partition.contiguous(8, 2)
        program = distribute_circuit(circuit, partition=partition)
        assert program.remote_gate_count() == 1

    def test_partition_size_mismatch(self):
        circuit = tlim_circuit(8, num_steps=1)
        with pytest.raises(PartitionError):
            distribute_circuit(circuit, partition=Partition.contiguous(6, 2))

    def test_node_queries(self):
        program = distribute_circuit(tlim_circuit(8, num_steps=1), num_nodes=2)
        for node in range(2):
            qubits = program.partition.block_members(node)
            assert len(qubits) == 4
            assert all(program.node_of(q) == node for q in qubits)

    def test_benchmark_registry_roundtrip(self):
        program = distribute_circuit(build_benchmark("QAOA-r4-32"), num_nodes=2)
        assert program.num_qubits == 32
        assert program.remote_gate_count() > 0


class TestRebalancing:
    def test_rebalance_restores_exact_sizes(self):
        graph = InteractionGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        skewed = Partition.from_blocks([[0, 1, 2, 3], [4, 5]])
        balanced = rebalance_partition(graph, skewed, [3, 3])
        assert balanced.block_sizes() == [3, 3]

    def test_rebalance_validates_targets(self):
        graph = InteractionGraph(4)
        partition = Partition.contiguous(4, 2)
        with pytest.raises(PartitionError):
            rebalance_partition(graph, partition, [3])
        with pytest.raises(PartitionError):
            rebalance_partition(graph, partition, [3, 3])

    def test_exact_balance_default(self):
        for name in ("QAOA-r8-32", "QFT-32"):
            program = distribute_circuit(build_benchmark(name), num_nodes=2)
            assert program.partition.block_sizes() == [16, 16]
