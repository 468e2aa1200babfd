"""Unit tests for Werner states and their fidelity decay."""

import numpy as np
import pytest

from repro.entanglement import werner_density_matrix, werner_fidelity_after
from repro.exceptions import EntanglementError


class TestWernerDecay:
    def test_no_decay_at_zero_time(self):
        assert werner_fidelity_after(0.99, 0.0, 0.002) == pytest.approx(0.99)

    def test_monotone_decrease(self):
        values = [werner_fidelity_after(0.99, t, 0.002) for t in (0, 10, 50, 200)]
        assert values == sorted(values, reverse=True)

    def test_asymptote_is_quarter(self):
        assert werner_fidelity_after(0.99, 1e7, 0.002) == pytest.approx(0.25, abs=1e-6)

    def test_formula(self):
        f0, t, kappa = 0.95, 25.0, 0.002
        decay = np.exp(-2 * kappa * t)
        expected = f0 * decay + (1 - decay) / 4
        assert werner_fidelity_after(f0, t, kappa) == pytest.approx(expected)

    def test_zero_kappa_preserves_fidelity(self):
        assert werner_fidelity_after(0.9, 100.0, 0.0) == pytest.approx(0.9)

    def test_invalid_arguments(self):
        with pytest.raises(EntanglementError):
            werner_fidelity_after(1.5, 1.0, 0.1)
        with pytest.raises(EntanglementError):
            werner_fidelity_after(0.9, -1.0, 0.1)
        with pytest.raises(EntanglementError):
            werner_fidelity_after(0.9, 1.0, -0.1)


class TestWernerState:
    def test_density_matrix_properties(self):
        rho = werner_density_matrix(0.9)
        assert np.allclose(np.trace(rho), 1.0)
        assert np.allclose(rho, rho.conj().T)
        assert np.all(np.linalg.eigvalsh(rho) > -1e-12)

    def test_fidelity_recovered_from_matrix(self):
        fidelity = 0.87
        rho = werner_density_matrix(fidelity)
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert bell @ rho @ bell == pytest.approx(fidelity)

    def test_pure_bell_limit(self):
        rho = werner_density_matrix(1.0)
        assert np.linalg.matrix_rank(np.round(rho, 10)) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(EntanglementError):
            werner_density_matrix(0.2)
