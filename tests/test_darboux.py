import math

import numpy as np
import pytest

from conftest import free_spinor_field
from diracband import (
    ScalarPotential,
    SingularTransform,
    Spinor,
    SpinorField,
    TransformSeed,
    basis_fields,
    hamiltonian_residual,
    intertwining_check,
    map_solution,
    potential_s1,
    soliton_potential,
    soliton_seed,
    transformed_potential,
    wronskian,
)
from diracband.verify import _random_smooth_field


class TestTransformedPotential:
    def test_matches_closed_form(self, canonical):
        seed = soliton_seed(canonical)
        for x in np.linspace(-2.5, 2.5, 50):
            generic = transformed_potential(seed, float(x))
            closed = float(potential_s1(canonical, x))
            assert abs(generic - closed) < 1e-12

    def test_matches_closed_form_for_steep_variant(self, steep):
        seed = soliton_seed(steep)
        value = transformed_potential(seed, 0.0)
        assert value == pytest.approx(-2.0 / (2.0 + math.sqrt(3.0)), abs=1e-12)
        for x in np.linspace(-2, 2, 21):
            assert abs(transformed_potential(seed, float(x)) - float(potential_s1(steep, x))) < 1e-12

    def test_identical_components_cancel(self):
        seed = TransformSeed(
            u11=lambda x: math.cosh(x) + 2.0,
            u21=lambda x: math.cosh(x) + 2.0,
            lambda1=0.5,
            s0=ScalarPotential(lambda x: 0.3 * x, "linear"),
            mass=2.0,
        )
        for x in (-1.2, 0.0, 0.7):
            assert transformed_potential(seed, x) == pytest.approx(0.3 * x, abs=1e-9)

    def test_node_raises(self, canonical):
        seed = TransformSeed(
            u11=math.sin,  # node at 0
            u21=lambda x: math.cosh(x),
            lambda1=canonical.lam,
            s0=ScalarPotential.zero(),
            mass=canonical.mass,
        )
        with pytest.raises(SingularTransform):
            transformed_potential(seed, 0.0)

    def test_finite_difference_fallback(self, canonical):
        g, al = canonical.gamma, canonical.alpha
        seed = TransformSeed(
            u11=lambda x: math.cosh(g * x - al),
            u21=lambda x: math.cosh(g * x + al),
            lambda1=canonical.lam,
            s0=ScalarPotential.zero(),
            mass=canonical.mass,
        )
        for x in (-0.9, 0.2, 1.4):
            assert abs(transformed_potential(seed, x) - float(potential_s1(canonical, x))) < 1e-8


class TestMapSolution:
    def test_free_solution_maps_onto_soliton_basis(self, canonical):
        seed = soliton_seed(canonical)
        free = free_spinor_field(canonical.mass, 3.0)
        _, phi = basis_fields(canonical, 3.0)
        for x in (0.0, 0.7, -1.3):
            mapped = map_solution(seed, free, x)
            assert abs(wronskian(mapped, phi(x))) < 1e-9

    def test_mapped_solution_satisfies_transformed_equation(self, canonical):
        seed = soliton_seed(canonical)
        free = free_spinor_field(canonical.mass, 3.0)
        mapped_field = SpinorField(lambda x: map_solution(seed, free, x), 3.0)
        pot = soliton_potential(canonical)
        assert hamiltonian_residual(mapped_field, pot, canonical.mass, 3.0, 0.4, h=1e-4) < 1e-6

    def test_seed_spinor_is_annihilated(self, canonical):
        g, al = canonical.gamma, canonical.alpha
        seed = soliton_seed(canonical)
        u1 = SpinorField(
            lambda x: Spinor(math.cosh(g * x - al), math.cosh(g * x + al)),
            canonical.lam,
            derivative=lambda x: Spinor(g * math.sinh(g * x - al), g * math.sinh(g * x + al)),
        )
        for x in (0.0, 0.9, -1.7):
            out = map_solution(seed, u1, x)
            assert out.norm() < 1e-12


class TestIntertwining:
    def test_random_smooth_fields(self, canonical):
        seed = soliton_seed(canonical)
        worst = 0.0
        for i in range(10):
            field = _random_smooth_field(i)
            for x in (0.12, -0.8, 1.4):
                worst = max(worst, intertwining_check(seed, field, x, h=1e-4))
        assert worst < 1e-5

    def test_second_seed(self, steep):
        seed = soliton_seed(steep)
        worst = max(
            intertwining_check(seed, _random_smooth_field(i), 0.3, h=1e-4) for i in range(10)
        )
        assert worst < 1e-5

    def test_residual_shrinks_with_h(self, canonical):
        seed = soliton_seed(canonical)
        field = _random_smooth_field(4)
        r1 = intertwining_check(seed, field, 0.5, h=1e-3)
        r2 = intertwining_check(seed, field, 0.5, h=1e-4)
        assert r2 < r1

    def test_zero_field(self, canonical):
        seed = soliton_seed(canonical)
        zero = SpinorField(
            lambda x: Spinor(0.0, 0.0), 0.0, derivative=lambda x: Spinor(0.0, 0.0)
        )
        assert intertwining_check(seed, zero, 0.3, h=1e-4) == 0.0

    def test_corrupted_transform_is_detected(self, canonical):
        seed = soliton_seed(canonical)
        field = _random_smooth_field(3)
        bad = lambda x: float(potential_s1(canonical, x)) + 0.1
        assert intertwining_check(seed, field, 0.3, h=1e-4, transformed_s=bad) > 1e-2

    def test_rejects_nonpositive_step(self, canonical):
        seed = soliton_seed(canonical)
        with pytest.raises(ValueError):
            intertwining_check(seed, _random_smooth_field(0), 0.3, h=-1.0)
