import math

import numpy as np
import pytest

from conftest import floquet_multipliers
from diracband import (
    Kinematics,
    ScalarPotential,
    Spinor,
    SpinorField,
    basis_fields,
    basis_spinors,
    hamiltonian_residual,
    soliton_potential,
    wronskian,
)


class TestWronskian:
    def test_identical_real_spinor_gives_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.normal(size=2)
            s = Spinor(a, b)
            assert wronskian(s, s) == 0

    def test_antisymmetry_on_random_real_spinors(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b, c, d = rng.normal(size=4)
            phi, psi = Spinor(a, b), Spinor(c, d)
            assert wronskian(phi, psi) == -wronskian(psi, phi)

    def test_soliton_basis_has_unit_wronskian(self, canonical):
        kin = Kinematics.for_energy(canonical.mass, 3.0)
        psi, phi = basis_spinors(canonical, kin, 0.0)
        assert abs(wronskian(psi, phi) - 1.0) < 1e-12

    def test_constant_in_x_over_random_positions(self, canonical):
        rng = np.random.default_rng(9)
        kin = Kinematics.for_energy(canonical.mass, 2.6)
        ref = wronskian(*basis_spinors(canonical, kin, 0.0))
        worst = max(
            abs(wronskian(*basis_spinors(canonical, kin, float(x))) - ref)
            for x in rng.uniform(-3, 3, 100)
        )
        assert worst < 1e-10


class TestHamiltonianResidual:
    def test_closed_form_solution_is_small(self, canonical):
        psi, _ = basis_fields(canonical, 3.0)
        pot = soliton_potential(canonical)
        r = hamiltonian_residual(psi, pot, canonical.mass, 3.0, 0.3, h=1e-4)
        assert r < 1e-6

    def test_zero_field_gives_zero(self, canonical):
        zero = SpinorField(lambda x: Spinor(0.0, 0.0), 3.0)
        pot = soliton_potential(canonical)
        assert hamiltonian_residual(zero, pot, canonical.mass, 3.0, 0.3) == 0.0

    def test_wrong_energy_is_detected(self, canonical):
        psi, _ = basis_fields(canonical, 3.0)
        pot = soliton_potential(canonical)
        r = hamiltonian_residual(psi, pot, canonical.mass, 3.1, 0.3, h=1e-4)
        assert r > 1e-3

    def test_second_order_convergence(self, canonical):
        psi, _ = basis_fields(canonical, 3.0)
        pot = soliton_potential(canonical)
        r1 = hamiltonian_residual(psi, pot, canonical.mass, 3.0, 0.3, h=1e-4)
        r2 = hamiltonian_residual(psi, pot, canonical.mass, 3.0, 0.3, h=5e-5)
        assert 3.5 < r1 / r2 < 4.5

    def test_rejects_nonpositive_step(self, canonical):
        psi, _ = basis_fields(canonical, 3.0)
        with pytest.raises(ValueError):
            hamiltonian_residual(psi, soliton_potential(canonical), canonical.mass, 3.0, 0.3, h=0.0)


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


class TestSpinorBasics:
    def test_rejects_non_finite_components(self):
        with pytest.raises(ValueError):
            Spinor(math.inf, 0.0)

    def test_scalar_potential_array_fallback(self):
        scalar_only = ScalarPotential(lambda x: float(x) ** 2, "scalar-only")
        xs = np.array([1.0, 2.0, 3.0])
        assert np.allclose(scalar_only.values(xs), xs**2)

    def test_field_derivative_fallback(self):
        field = SpinorField(lambda x: Spinor(math.sin(x), math.cos(x)), 0.0)
        d = field.d(0.3)
        assert abs(d.c1 - math.cos(0.3)) < 1e-9
        assert abs(d.c2 + math.sin(0.3)) < 1e-9
