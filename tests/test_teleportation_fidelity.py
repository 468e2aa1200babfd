"""Unit tests for the gate-teleportation fidelity evaluation and FidelityModel."""

import math

import pytest

from repro.hardware.parameters import GateFidelities
from repro.noise import (
    FidelityModel,
    remote_gate_fidelity,
    teleported_cnot_average_fidelity,
    teleported_cnot_process_fidelity,
)
from repro.exceptions import NoiseError


class TestTeleportedCnot:
    def test_perfect_components_give_unit_fidelity(self):
        fidelity = teleported_cnot_process_fidelity(1.0, 1.0, 1.0, 1.0)
        assert fidelity == pytest.approx(1.0, abs=1e-9)

    def test_table2_defaults_are_high_but_below_one(self):
        fidelity = teleported_cnot_average_fidelity(0.99)
        assert 0.97 < fidelity < 1.0

    def test_monotone_in_link_fidelity(self):
        values = [teleported_cnot_average_fidelity(f) for f in (0.8, 0.9, 0.95, 0.99)]
        assert values == sorted(values)

    def test_monotone_in_cnot_fidelity(self):
        low = teleported_cnot_average_fidelity(0.99, cnot_fidelity=0.98)
        high = teleported_cnot_average_fidelity(0.99, cnot_fidelity=0.999)
        assert high > low

    def test_monotone_in_measurement_fidelity(self):
        low = teleported_cnot_average_fidelity(0.99, measurement_fidelity=0.95)
        high = teleported_cnot_average_fidelity(0.99, measurement_fidelity=0.998)
        assert high > low

    def test_maximally_mixed_link_is_useless(self):
        fidelity = teleported_cnot_process_fidelity(0.25, 1.0, 1.0, 1.0)
        # A maximally mixed resource fully dephases both halves of the
        # teleportation: the surviving process fidelity collapses to the
        # classical value 1/4, far below the fresh-link value.
        assert fidelity == pytest.approx(0.25, abs=0.02)
        assert fidelity < 0.5 * teleported_cnot_process_fidelity(0.99, 1.0, 1.0, 1.0)

    def test_out_of_range_link_fidelity(self):
        with pytest.raises(NoiseError):
            teleported_cnot_process_fidelity(0.1)

    def test_resolution_clamps_extremes(self):
        assert remote_gate_fidelity(1.0000001) <= 1.0
        assert remote_gate_fidelity(0.2500001) > 0.0

    def test_affine_fast_path_matches_density_matrix_sim(self):
        # The teleportation channel is linear in the input state and the
        # Werner resource is affine in its Bell fidelity, so the O(1)
        # affine evaluation must match the full 6-qubit simulation to
        # machine precision across the whole Werner range.
        for link in (0.25, 0.3, 0.5, 0.77, 0.9, 0.987, 1.0):
            direct = teleported_cnot_average_fidelity(link)
            fast = remote_gate_fidelity(link)
            assert fast == pytest.approx(direct, abs=5e-15)
        # Non-default local noise gets its own cached anchor pair.
        direct = teleported_cnot_average_fidelity(0.8, 0.99, 0.97, 0.999)
        fast = remote_gate_fidelity(0.8, 0.99, 0.97, 0.999)
        assert fast == pytest.approx(direct, abs=5e-15)


class TestFidelityModel:
    def test_ideal_circuit_factors(self):
        model = FidelityModel(kappa=0.0)
        breakdown = model.estimate(
            num_single_qubit=10, num_local_two_qubit=5,
            remote_link_fidelities=[], makespan=100.0,
        )
        assert breakdown.single_qubit_factor == pytest.approx(0.9999 ** 10)
        assert breakdown.local_two_qubit_factor == pytest.approx(0.999 ** 5)
        assert breakdown.idling_factor == pytest.approx(1.0)
        assert breakdown.total == pytest.approx(0.9999 ** 10 * 0.999 ** 5)

    def test_idling_decay_makespan_mode(self):
        model = FidelityModel(kappa=0.002)
        assert model.idling_factor(500.0) == pytest.approx(math.exp(-1.0))

    def test_remote_gates_lower_fidelity(self):
        model = FidelityModel(kappa=0.0)
        without = model.estimate_total(0, 0, [], 0.0)
        with_remote = model.estimate_total(0, 0, [0.95, 0.9], 0.0)
        assert with_remote < without == pytest.approx(1.0)

    def test_fresher_links_give_higher_fidelity(self):
        model = FidelityModel(kappa=0.0)
        fresh = model.estimate_total(0, 0, [0.99] * 5, 0.0)
        stale = model.estimate_total(0, 0, [0.90] * 5, 0.0)
        assert fresh > stale

    def test_measurements_included(self):
        model = FidelityModel(kappa=0.0)
        with_measure = model.estimate_total(0, 0, [], 0.0, num_measurements=3)
        assert with_measure == pytest.approx(0.998 ** 3)

    def test_custom_gate_fidelities(self):
        model = FidelityModel(fidelities=GateFidelities(local_cnot=0.99), kappa=0.0)
        breakdown = model.estimate(0, 10, [], 0.0)
        assert breakdown.local_two_qubit_factor == pytest.approx(0.99 ** 10)

    def test_validation(self):
        with pytest.raises(NoiseError):
            FidelityModel(kappa=-1.0)
        model = FidelityModel()
        with pytest.raises(NoiseError):
            model.estimate(-1, 0, [], 0.0)
        with pytest.raises(NoiseError):
            model.idling_factor(-5.0)
