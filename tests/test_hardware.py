"""Unit tests for the hardware model (nodes, architecture, parameters)."""

import pytest

from repro.hardware import (
    DQCArchitecture,
    GateFidelities,
    GateTimes,
    HeraldedLinkModel,
    PhysicalConstants,
    QPUNode,
    two_node_architecture,
)
from repro.exceptions import ArchitectureError, ConfigurationError


class TestQPUNode:
    def test_pools_built(self):
        node = QPUNode(0, 16, 10, 10)
        assert (node.num_data_qubits, node.num_comm_qubits,
                node.num_buffer_qubits) == (16, 10, 10)

    def test_invalid_counts(self):
        with pytest.raises(ArchitectureError):
            QPUNode(0, 0, 1, 1)
        with pytest.raises(ArchitectureError):
            QPUNode(0, 4, -1, 0)


class TestArchitecture:
    def test_two_node_defaults(self, paper_architecture):
        assert paper_architecture.num_nodes == 2
        assert paper_architecture.total_data_qubits == 32
        assert [node.num_comm_qubits for node in paper_architecture.nodes] \
            == [10, 10]
        assert paper_architecture.comm_pairs_between(0, 1) == 10
        assert paper_architecture.buffer_capacity_between(0, 1) == 10

    def test_node_pairs_and_connectivity(self, paper_architecture):
        assert paper_architecture.node_pairs() == [(0, 1)]
        assert paper_architecture.are_connected(0, 1)
        assert not paper_architecture.are_connected(0, 0)

    def test_decoherence_rate(self, paper_architecture):
        # 300 ns CNOT, 150 us decoherence -> kappa = 0.002 per unit.
        assert paper_architecture.decoherence_rate == pytest.approx(0.002)

    def test_capacity_validation(self, paper_architecture):
        paper_architecture.validate_capacity([16, 16])
        with pytest.raises(ArchitectureError):
            paper_architecture.validate_capacity([17, 15])
        with pytest.raises(ArchitectureError):
            paper_architecture.validate_capacity([16])

    def test_explicit_links(self):
        nodes = [QPUNode(i, 4, 2, 2) for i in range(3)]
        arch = DQCArchitecture(nodes=nodes, links=[(0, 1), (1, 2)])
        assert arch.are_connected(0, 1)
        assert not arch.are_connected(0, 2)

    def test_invalid_node_order(self):
        with pytest.raises(ArchitectureError):
            DQCArchitecture(nodes=[QPUNode(1, 4, 1, 1)])


class TestParameters:
    def test_table2_values(self):
        times, fidelities = GateTimes(), GateFidelities()
        assert (times.single_qubit, fidelities.single_qubit) == (0.1, 0.9999)
        assert (times.local_cnot, fidelities.local_cnot) == (1.0, 0.999)
        assert (times.measurement, fidelities.measurement) == (5.0, 0.998)
        assert (times.epr_generation_cycle, fidelities.epr_pair) == (10.0, 0.99)

    def test_gate_time_lookup(self):
        times = GateTimes()
        assert times.duration_of("h") == pytest.approx(0.1)
        assert times.duration_of("cx") == pytest.approx(1.0)
        assert times.duration_of("rzz") == pytest.approx(1.0)
        assert times.duration_of("measure") == pytest.approx(5.0)
        assert times.duration_of("barrier") == 0.0

    def test_remote_latency_with_frame_tracking(self):
        assert GateTimes().remote_gate_latency() == pytest.approx(1.2)
        no_frame = GateTimes(pauli_frame_tracking=False)
        assert no_frame.remote_gate_latency() == pytest.approx(6.2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            GateTimes(local_cnot=-1.0)
        with pytest.raises(ConfigurationError):
            GateFidelities(local_cnot=0.0)
        with pytest.raises(ConfigurationError):
            PhysicalConstants(epr_success_probability=0.0)

    def test_physical_constants_conversion(self):
        physics = PhysicalConstants()
        assert physics.decoherence_rate_per_unit == pytest.approx(0.002)


class TestHeraldedLinkModel:
    def test_success_probability_bounded_by_half(self):
        model = HeraldedLinkModel()
        assert 0.0 < model.success_probability <= 0.5

    def test_short_fiber_has_high_transmission(self):
        model = HeraldedLinkModel(fiber_length_m=10.0)
        assert model.transmission_efficiency > 0.999

    def test_longer_fiber_lowers_success(self):
        near = HeraldedLinkModel(fiber_length_m=10.0)
        far = HeraldedLinkModel(fiber_length_m=10000.0)
        assert far.success_probability < near.success_probability

    def test_cycle_time_components(self):
        model = HeraldedLinkModel()
        assert model.photon_travel_time_ns == pytest.approx(50.0)
        assert model.cycle_time_ns > model.emission_cutoff_ns
        # Roughly ten local CNOTs, consistent with T_EG = 10 in Table II.
        assert model.cycle_time_units(PhysicalConstants()) == pytest.approx(
            10.0, rel=0.05
        )

    def test_bsm_efficiency_bound(self):
        with pytest.raises(ConfigurationError):
            HeraldedLinkModel(bsm_efficiency=0.6)
