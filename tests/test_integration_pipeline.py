"""Integration tests: full pipeline end-to-end and paper-shape assertions.

These tests run the complete co-design flow (benchmark -> partition ->
schedule -> execute -> estimate) on scaled-down systems and check the
qualitative findings of the paper's evaluation:

* buffering reduces depth dramatically compared to the ``original`` design,
* asynchronous generation does not lose to synchronous generation (and its
  fidelity is at least as good),
* adaptive scheduling does not hurt, and pre-initialised buffers give the
  lowest depth of the buffered designs,
* the ideal (monolithic) execution lower-bounds depth and upper-bounds
  fidelity.
"""

import statistics

import pytest

from repro.benchmarks import qaoa_regular_circuit, qft_circuit, tlim_circuit
from repro.core import DQCSimulator, SystemConfig
from repro.partitioning import distribute_circuit
from repro.runtime import execute_design, list_designs


def average_metrics(simulator, circuit, design, seeds):
    results = [simulator.simulate(circuit, design=design, seed=s) for s in seeds]
    return (
        statistics.mean(r.depth for r in results),
        statistics.mean(r.fidelity for r in results),
    )


@pytest.fixture(scope="module")
def mid_simulator():
    system = SystemConfig(data_qubits_per_node=8, comm_qubits_per_node=6,
                          buffer_qubits_per_node=6)
    return DQCSimulator(system=system)


@pytest.fixture(scope="module")
def workloads():
    return {
        "tlim": tlim_circuit(16, num_steps=3),
        "qaoa": qaoa_regular_circuit(16, 4, layers=1, seed=5),
        "qft": qft_circuit(12),
    }


SEEDS = range(1, 6)


class TestDesignOrderingAcrossWorkloads:
    @pytest.mark.parametrize("workload", ["tlim", "qaoa", "qft"])
    def test_buffering_reduces_depth(self, mid_simulator, workloads, workload):
        circuit = workloads[workload]
        original_depth, _ = average_metrics(mid_simulator, circuit, "original", SEEDS)
        buffered_depth, _ = average_metrics(mid_simulator, circuit, "async_buf", SEEDS)
        assert buffered_depth < original_depth
        # The paper reports ~60% average reduction; require a sizeable one for
        # the remote-heavy workloads.
        if workload == "qft":
            assert buffered_depth < 0.6 * original_depth

    @pytest.mark.parametrize("workload", ["tlim", "qaoa", "qft"])
    def test_ideal_bounds(self, mid_simulator, workloads, workload):
        circuit = workloads[workload]
        ideal_depth, ideal_fidelity = average_metrics(
            mid_simulator, circuit, "ideal", [1]
        )
        for design in ("original", "sync_buf", "async_buf", "adapt_buf", "init_buf"):
            depth, fidelity = average_metrics(mid_simulator, circuit, design, SEEDS)
            # Adaptive designs may dip marginally below the fixed-order ideal
            # baseline by shortening the dependency critical path through
            # commutation; allow a small tolerance for that effect.
            assert depth >= ideal_depth * 0.95
            assert fidelity <= ideal_fidelity + 1e-6

    @pytest.mark.parametrize("workload", ["qaoa", "qft"])
    def test_async_fidelity_not_worse_than_sync(self, mid_simulator, workloads,
                                                workload):
        circuit = workloads[workload]
        _, sync_fidelity = average_metrics(mid_simulator, circuit, "sync_buf", SEEDS)
        _, async_fidelity = average_metrics(mid_simulator, circuit, "async_buf", SEEDS)
        assert async_fidelity >= sync_fidelity * 0.98

    @pytest.mark.parametrize("workload", ["tlim", "qaoa"])
    def test_async_depth_not_worse_than_sync(self, mid_simulator, workloads, workload):
        circuit = workloads[workload]
        sync_depth, _ = average_metrics(mid_simulator, circuit, "sync_buf", SEEDS)
        async_depth, _ = average_metrics(mid_simulator, circuit, "async_buf", SEEDS)
        assert async_depth <= sync_depth * 1.05

    @pytest.mark.parametrize("workload", ["qaoa", "qft"])
    def test_adaptive_not_worse_than_async(self, mid_simulator, workloads, workload):
        circuit = workloads[workload]
        async_depth, _ = average_metrics(mid_simulator, circuit, "async_buf", SEEDS)
        adapt_depth, _ = average_metrics(mid_simulator, circuit, "adapt_buf", SEEDS)
        assert adapt_depth <= async_depth * 1.05

    @pytest.mark.parametrize("workload", ["tlim", "qaoa", "qft"])
    def test_init_buf_has_lowest_buffered_depth(self, mid_simulator, workloads,
                                                workload):
        circuit = workloads[workload]
        init_depth, _ = average_metrics(mid_simulator, circuit, "init_buf", SEEDS)
        for design in ("sync_buf", "async_buf", "adapt_buf"):
            depth, _ = average_metrics(mid_simulator, circuit, design, SEEDS)
            assert init_depth <= depth * 1.02


class TestCommQubitScaling:
    def test_more_comm_qubits_reduce_depth(self):
        circuit = qaoa_regular_circuit(16, 8, layers=1, seed=4)
        depths = {}
        for count in (3, 6, 10):
            system = SystemConfig(data_qubits_per_node=8,
                                  comm_qubits_per_node=count,
                                  buffer_qubits_per_node=count)
            simulator = DQCSimulator(system=system)
            depths[count], _ = average_metrics(simulator, circuit, "async_buf", SEEDS)
        assert depths[10] <= depths[6] <= depths[3] * 1.02

    def test_fidelity_insensitive_to_comm_count(self):
        circuit = qaoa_regular_circuit(16, 8, layers=1, seed=4)
        fidelities = []
        for count in (6, 10):
            system = SystemConfig(data_qubits_per_node=8,
                                  comm_qubits_per_node=count,
                                  buffer_qubits_per_node=count)
            simulator = DQCSimulator(system=system)
            _, fidelity = average_metrics(simulator, circuit, "adapt_buf", SEEDS)
            fidelities.append(fidelity)
        assert fidelities[1] == pytest.approx(fidelities[0], rel=0.25)


class TestEndToEndConsistency:
    def test_all_designs_run_on_all_small_benchmarks(self, mid_simulator, workloads):
        for circuit in workloads.values():
            for design in list_designs():
                result = mid_simulator.simulate(circuit, design=design, seed=2)
                assert result.design == design
                assert result.depth > 0
                assert 0 <= result.fidelity <= 1

    def test_remote_gate_count_independent_of_design(self, mid_simulator, workloads):
        circuit = workloads["qft"]
        program = distribute_circuit(circuit, num_nodes=2)
        expected = program.remote_gate_count()
        for design in ("original", "sync_buf", "async_buf", "adapt_buf", "init_buf"):
            result = mid_simulator.simulate(program, design=design, seed=7)
            assert result.num_remote == expected

    def test_direct_executor_matches_simulator(self, workloads):
        system = SystemConfig(data_qubits_per_node=8, comm_qubits_per_node=6,
                              buffer_qubits_per_node=6)
        simulator = DQCSimulator(system=system)
        program = distribute_circuit(workloads["tlim"], num_nodes=2)
        via_simulator = simulator.simulate(program, design="sync_buf", seed=11)
        via_executor = execute_design(program, system.build_architecture(),
                                      "sync_buf", seed=11)
        assert via_simulator.depth == pytest.approx(via_executor.depth)
        assert via_simulator.fidelity == pytest.approx(via_executor.fidelity)

    def test_waste_is_higher_without_buffer(self, mid_simulator, workloads):
        circuit = workloads["qft"]
        original = mid_simulator.simulate(circuit, design="original", seed=3)
        buffered = mid_simulator.simulate(circuit, design="async_buf", seed=3)
        assert 0 <= original.epr_statistics["wasted"] \
            <= original.epr_statistics["generated"]
        assert buffered.epr_statistics["consumed_from_buffer"] > 0
