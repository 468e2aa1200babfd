"""Unit and behaviour tests for the discrete-event design executor."""

import pytest

from repro.analysis.statistics import ordered_sum
from repro.benchmarks import qft_circuit, tlim_circuit
from repro.circuits import QuantumCircuit
from repro.partitioning import Partition, distribute_circuit
from repro.runtime import DesignExecutor, execute_design, get_design
from repro.exceptions import ArchitectureError, RuntimeSimulationError


@pytest.fixture
def small_program(small_architecture):
    circuit = tlim_circuit(12, num_steps=2)
    return distribute_circuit(circuit, num_nodes=2, seed=0)


class TestIdealExecution:
    def test_ideal_depth_matches_weighted_critical_path(self, small_architecture,
                                                        small_program):
        result = execute_design(small_program, small_architecture, "ideal")
        weights = {
            name: small_architecture.gate_times.duration_of(name)
            for name in small_program.circuit.count_ops()
        }
        assert result.makespan == pytest.approx(
            small_program.circuit.depth(weights)
        )
        assert result.num_remote == 0

    def test_ideal_has_highest_fidelity(self, small_architecture, small_program):
        ideal = execute_design(small_program, small_architecture, "ideal")
        async_buf = execute_design(small_program, small_architecture, "async_buf",
                                   seed=1)
        assert ideal.fidelity >= async_buf.fidelity

    def test_ideal_counts_remote_gates_as_local(self, small_architecture,
                                                small_program):
        result = execute_design(small_program, small_architecture, "ideal")
        assert result.num_local_two_qubit == small_program.circuit.num_two_qubit_gates()


class TestDistributedExecution:
    def test_remote_gates_recorded(self, small_architecture, small_program):
        executor = DesignExecutor(small_architecture, "async_buf", seed=2,
                                  collect_trace=True)
        result = executor.run(small_program)
        assert result.num_remote == small_program.remote_gate_count()
        remote = executor.last_trace.remote_entries()
        assert len(remote) == result.num_remote
        assert all(entry.link_fidelity > 0.25 for entry in remote)
        # The trace lists remote gates in the order the total added them.
        assert result.link_fidelity_total == ordered_sum(
            entry.link_fidelity for entry in remote)

    def test_remote_gate_starts_after_ready(self, small_architecture,
                                            small_program, acquire_calls):
        executor = DesignExecutor(small_architecture, "sync_buf", seed=2,
                                  collect_trace=True)
        result = executor.run(small_program)
        assert len(acquire_calls) == result.num_remote
        for ready, start, _created, _fidelity in acquire_calls:
            assert start >= ready - 1e-9
        for entry in executor.last_trace.remote_entries():
            assert entry.finish > entry.start
        assert result.remote_wait_total == ordered_sum(
            max(0.0, start - ready) for ready, start, _, _ in acquire_calls)

    def test_depth_at_least_ideal(self, small_architecture, small_program):
        ideal = execute_design(small_program, small_architecture, "ideal")
        for design in ("original", "sync_buf", "async_buf", "adapt_buf", "init_buf"):
            result = execute_design(small_program, small_architecture, design, seed=3)
            assert result.makespan >= ideal.makespan - 1e-9

    def test_buffered_not_slower_than_original(self, small_architecture,
                                               small_program):
        original = execute_design(small_program, small_architecture, "original",
                                  seed=4)
        buffered = execute_design(small_program, small_architecture, "async_buf",
                                  seed=4)
        assert buffered.makespan <= original.makespan + 1e-9

    def test_reproducible_for_fixed_seed(self, small_architecture, small_program):
        first = execute_design(small_program, small_architecture, "async_buf", seed=9)
        second = execute_design(small_program, small_architecture, "async_buf", seed=9)
        assert first.makespan == pytest.approx(second.makespan)
        assert first.fidelity == pytest.approx(second.fidelity)

    def test_different_seeds_vary(self, small_architecture, small_program):
        depths = {
            round(execute_design(small_program, small_architecture, "original",
                                 seed=s).makespan, 6)
            for s in range(6)
        }
        assert len(depths) > 1

    def test_trace_collection(self, small_architecture, small_program):
        executor = DesignExecutor(small_architecture, "async_buf", seed=1,
                                  collect_trace=True)
        result = executor.run(small_program)
        trace = executor.last_trace
        assert trace is not None
        assert len(trace) == small_program.circuit.num_gates
        assert trace.is_consistent()
        assert trace.makespan() == pytest.approx(result.makespan)

    def test_epr_statistics_populated(self, small_architecture, small_program):
        result = execute_design(small_program, small_architecture, "async_buf",
                                seed=5)
        assert result.epr_statistics["generated"] >= result.num_remote
        consumed = (result.epr_statistics["consumed_from_buffer"]
                    + result.epr_statistics["consumed_direct"])
        assert consumed == result.num_remote

    def test_init_buf_prefills(self, small_architecture, small_program,
                               acquire_calls):
        execute_design(small_program, small_architecture, "init_buf", seed=5)
        # With pre-filled buffers the first remote gate should not wait.
        ready, start, _created, _fidelity = min(acquire_calls,
                                                key=lambda call: call[0])
        assert start - ready == pytest.approx(0.0, abs=1e-9)


class TestAdaptiveExecution:
    def test_adaptive_records_decisions(self, small_architecture, small_program):
        executor = DesignExecutor(small_architecture, "adapt_buf", seed=2)
        result = executor.run(small_program)
        assert sum(result.variant_histogram.values()) >= 1

    def test_adaptive_preserves_gate_count(self, small_architecture, small_program):
        result = execute_design(small_program, small_architecture, "adapt_buf", seed=2)
        assert result.num_remote == small_program.remote_gate_count()
        total_gates = (result.num_single_qubit + result.num_local_two_qubit
                       + result.num_remote)
        assert total_gates == small_program.circuit.num_gates

    def test_segment_length_override(self, small_architecture, small_program):
        executor = DesignExecutor(small_architecture, "adapt_buf", seed=2,
                                  segment_length=1)
        result = executor.run(small_program)
        assert sum(result.variant_histogram.values()) >= small_program.remote_gate_count()


class TestValidation:
    def test_capacity_violation_rejected(self, small_architecture):
        # 14 qubits cannot fit on 2 nodes with 6 data qubits each.
        circuit = tlim_circuit(14, num_steps=1)
        program = distribute_circuit(circuit, num_nodes=2, seed=0)
        with pytest.raises(ArchitectureError):
            execute_design(program, small_architecture, "async_buf")

    def test_remote_label_consistency_checked(self, small_architecture):
        circuit = QuantumCircuit(4)
        circuit.add_gate("cx", (0, 1), label="remote")  # same node after partition
        program = distribute_circuit(
            circuit, partition=Partition.from_blocks([[0, 1], [2, 3]])
        )
        # distribute_circuit relabels, so build a broken program manually.
        from repro.partitioning.assigner import DistributedProgram

        broken = DistributedProgram(circuit=circuit,
                                    partition=Partition.from_blocks([[0, 1], [2, 3]]))
        with pytest.raises(RuntimeSimulationError):
            execute_design(broken, small_architecture, "async_buf")
        # The correctly labelled program runs fine.
        execute_design(program, small_architecture, "async_buf")

    def test_too_many_program_nodes(self, small_architecture):
        circuit = tlim_circuit(8, num_steps=1)
        program = distribute_circuit(circuit, num_nodes=4, seed=0)
        with pytest.raises(RuntimeSimulationError):
            execute_design(program, small_architecture, "async_buf")
