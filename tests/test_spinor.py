import math

import numpy as np
import pytest

from conftest import floquet_multipliers, fundamental_matrix
from diracband import basis_spinors, bound_states, hamiltonian_residual, soliton_potential


def basis_column(params, energy, column):
    """Column 0 (psi) or 1 (phi) of U(x; E) as a function of x."""
    return lambda x: basis_spinors(params, energy, x)[column]


def unit_det(params, energy, xs):
    (u11, u12), (u21, u22) = fundamental_matrix(params, energy, xs)
    return u11 * u22 - u12 * u21


class TestWronskian:
    def test_soliton_basis_has_unit_wronskian(self, canonical):
        assert abs(unit_det(canonical, 3.0, 0.0) - 1.0) < 1e-12

    def test_constant_in_x_over_random_positions(self, canonical):
        xs = np.random.default_rng(9).uniform(-3, 3, 100)
        ref = unit_det(canonical, 2.6, 0.0)
        assert np.abs(unit_det(canonical, 2.6, xs) - ref).max() < 1e-10


class TestHamiltonianResidual:
    def test_closed_form_solution_is_small(self, canonical):
        pot = soliton_potential(canonical)
        r = hamiltonian_residual(basis_column(canonical, 3.0, 0), pot, canonical.mass, 3.0, 0.3, h=1e-4)
        assert r < 1e-6

    def test_zero_field_gives_zero(self, canonical):
        pot = soliton_potential(canonical)
        zero = lambda x: np.zeros((2,) + np.shape(x))
        assert hamiltonian_residual(zero, pot, canonical.mass, 3.0, 0.3) == 0.0

    def test_wrong_energy_is_detected(self, canonical):
        pot = soliton_potential(canonical)
        r = hamiltonian_residual(basis_column(canonical, 3.0, 0), pot, canonical.mass, 3.1, 0.3, h=1e-4)
        assert r > 1e-3

    def test_second_order_convergence(self, canonical):
        psi = basis_column(canonical, 3.0, 0)
        pot = soliton_potential(canonical)
        r1 = hamiltonian_residual(psi, pot, canonical.mass, 3.0, 0.3, h=1e-4)
        r2 = hamiltonian_residual(psi, pot, canonical.mass, 3.0, 0.3, h=5e-5)
        assert 3.5 < r1 / r2 < 4.5

    def test_rejects_nonpositive_step(self, canonical):
        psi = basis_column(canonical, 3.0, 0)
        with pytest.raises(ValueError):
            hamiltonian_residual(psi, soliton_potential(canonical), canonical.mass, 3.0, 0.3, h=0.0)

    def test_broadcasts_over_x(self, canonical):
        # an array of x reads, element by element, as each x alone
        xs = np.linspace(-2.0, 2.0, 9).reshape(3, 3)
        pot = soliton_potential(canonical)
        cases = (
            (basis_column(canonical, 3.0, 1), 3.0),
            (lambda x: bound_states(canonical, x)[1], -canonical.lam),
        )
        for solution, energy in cases:
            r = hamiltonian_residual(solution, pot, canonical.mass, energy, xs)
            assert r.shape == xs.shape
            for x, rx in zip(xs.ravel(), r.ravel()):
                assert hamiltonian_residual(solution, pot, canonical.mass, energy, float(x)) == rx

    def test_energy_array_matches_per_energy_calls(self, canonical):
        # U's first column at four energies, stacked down axis -2 of x
        energies = np.array([[0.4], [1.5], [3.0], [-4.2]])
        xs = np.array([[0.3, -0.7, 1.1]])
        pot = soliton_potential(canonical)
        stacked = lambda x: basis_spinors(canonical, energies, x)[0]
        r = hamiltonian_residual(stacked, pot, canonical.mass, energies, xs, h=1e-4)
        assert r.shape == (4, 3)
        for row, e in zip(r, energies[:, 0]):
            one = hamiltonian_residual(basis_column(canonical, float(e), 0), pot, canonical.mass,
                                       float(e), xs[0], h=1e-4)
            assert row.tobytes() == one.tobytes(), e


class TestFloquetMultipliers:
    def test_band_edge_double_root(self):
        pair = floquet_multipliers(2.0)
        assert pair.beta1 == pytest.approx(1.0)
        assert pair.beta2 == pytest.approx(1.0)

    def test_center_of_band(self):
        pair = floquet_multipliers(0.0)
        assert pair.beta1 == pytest.approx(1j)
        assert pair.beta2 == pytest.approx(-1j)

    def test_forbidden_value(self):
        pair = floquet_multipliers(2.5)
        assert pair.beta1 == pytest.approx(2.0)
        assert pair.beta2 == pytest.approx(0.5)

    def test_product_and_sum_identities(self):
        rng = np.random.default_rng(11)
        for d in rng.uniform(-5, 5, 100):
            pair = floquet_multipliers(float(d))
            assert abs(pair.beta1 * pair.beta2 - 1.0) < 1e-12
            assert abs(pair.beta1 + pair.beta2 - d) < 1e-12

    def test_unimodular_inside_band(self):
        for d in np.linspace(-2, 2, 41):
            pair = floquet_multipliers(float(d))
            assert abs(abs(pair.beta1) - 1.0) < 1e-12
            assert abs(abs(pair.beta2) - 1.0) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            floquet_multipliers(math.nan)
