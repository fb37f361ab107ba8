import math

import numpy as np
import pytest

from conftest import free_field, fundamental_matrix
from diracband import (
    ModelParams,
    darboux,
    hamiltonian_residual,
    intertwining_check,
    map_solution,
    potential_s1,
    soliton_potential,
    transformed_potential,
)
from diracband.verify import check_intertwining


class TestTransformedPotential:
    def test_matches_closed_form(self, canonical):
        xs = np.linspace(-2.5, 2.5, 50)
        assert np.abs(transformed_potential(canonical, xs) - potential_s1(canonical, xs)).max() < 1e-12

    def test_matches_closed_form_for_steep_variant(self, steep):
        at_origin = transformed_potential(steep, 0.0)
        assert at_origin == pytest.approx(-2.0 / (2.0 + math.sqrt(3.0)), abs=1e-12)
        xs = np.linspace(-2, 2, 21)
        assert np.abs(transformed_potential(steep, xs) - potential_s1(steep, xs)).max() < 1e-12

    def test_identical_components_cancel(self, canonical):
        # alpha = 0 makes u11 = u21 = cosh(gamma x): w1 = w2 and s1 = 0
        even = ModelParams(canonical.mass, canonical.gamma, canonical.half_period, alpha_override=0.0)
        assert np.all(transformed_potential(even, np.array([-1.2, 0.0, 0.7])) == 0.0)


class TestMapSolution:
    def test_free_solution_maps_onto_soliton_basis(self, canonical):
        # L psi is a solution, so it is U(x) applied to its value at 0
        free = free_field(canonical.mass, 3.0)
        start = map_solution(canonical, free, 0.0)
        xs = np.array([0.0, 0.7, -1.3])
        expected = np.einsum("ijn,j->in", fundamental_matrix(canonical, 3.0, xs), start)
        assert np.abs(map_solution(canonical, free, xs) - expected).max() < 1e-12

    def test_mapped_solution_satisfies_transformed_equation(self, canonical):
        free = free_field(canonical.mass, 3.0)
        mapped = lambda x: map_solution(canonical, free, x)
        pot = soliton_potential(canonical)
        assert hamiltonian_residual(mapped, pot, canonical.mass, 3.0, 0.4, h=1e-4) < 1e-6

    def test_seed_spinor_is_annihilated(self, canonical):
        g, al = canonical.gamma, canonical.alpha

        def seed(x):
            return (
                np.array([np.cosh(g * x - al), np.cosh(g * x + al)]),
                np.array([g * np.sinh(g * x - al), g * np.sinh(g * x + al)]),
            )

        out = map_solution(canonical, seed, np.array([0.0, 0.9, -1.7]))
        assert np.hypot(*out).max() < 1e-12


class TestIntertwining:
    def test_second_seed(self, steep):
        assert check_intertwining(steep).passed

    def test_residual_shrinks_with_h(self, canonical):
        field = free_field(canonical.mass, 3.0)
        r1 = intertwining_check(canonical, field, 0.5, h=1e-3)
        r2 = intertwining_check(canonical, field, 0.5, h=1e-4)
        assert r2 < r1

    def test_zero_field(self, canonical):
        zero = lambda x: (np.zeros((2,) + np.shape(x)),) * 2
        assert intertwining_check(canonical, zero, 0.3, h=1e-4) == 0.0

    def test_corrupted_transform_is_detected(self, canonical, monkeypatch):
        s1 = darboux.transformed_potential
        monkeypatch.setattr(darboux, "transformed_potential", lambda p, x: s1(p, x) + 0.1)
        field = free_field(canonical.mass, 3.0)
        assert intertwining_check(canonical, field, 0.3, h=1e-4) > 1e-2

    def test_rejects_nonpositive_step(self, canonical):
        with pytest.raises(ValueError):
            intertwining_check(canonical, free_field(canonical.mass, 3.0), 0.3, h=-1.0)
