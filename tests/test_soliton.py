import math

import numpy as np
import pytest

from conftest import fundamental_matrix
from diracband import (
    ModelParams,
    basis_spinors,
    bound_states,
    darboux,
    hamiltonian_residual,
    lyapunov_many,
    periodized_potential,
    potential_s1,
    soliton,
    soliton_potential,
    w_functions,
)
from diracband.monodromy import _propagate
from diracband.soliton import free_pair
from diracband.spinor import det_drift
from diracband.verify import (
    check_darboux_consistency,
    check_intertwining,
    check_solution_residuals,
    check_wronskian_unity,
)
from inputs import oracle_sets

# sign regression for the reflection relations: w1(-a) = -w2(a) for the
# canonical parameters, frozen from direct evaluation of the tanh forms
W2_AT_A = 1.3697112045986477


class TestModelParams:
    def test_lambda_gamma_round_trip(self, canonical):
        assert canonical.gamma == pytest.approx(math.sqrt(3.0), abs=1e-15)
        assert canonical.lam == pytest.approx(1.0, abs=1e-12)
        assert canonical.period == 2.0

    def test_alpha_value(self, canonical):
        expected = 0.25 * math.log((2.0 - math.sqrt(3.0)) / (2.0 + math.sqrt(3.0)))
        assert canonical.alpha == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass": -1.0, "gamma": 0.5, "half_period": 1.0},
            {"mass": 2.0, "gamma": 0.0, "half_period": 1.0},
            {"mass": 2.0, "gamma": 2.5, "half_period": 1.0},
            {"mass": 2.0, "gamma": 1.0, "half_period": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_from_lambda_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ModelParams.from_lambda(2.0, 2.0, 1.0)


class TestKinematics:
    """The free pair (C, S) of exp(A0 x) = C I + S A0 carries the momentum
    k = sqrt(E^2 - m^2): real above the mass shell, imaginary below it."""

    XS = np.linspace(-2.2, 2.2, 23)

    def test_momentum_identity(self, canonical):
        # det exp(A0 x) = C^2 + q S^2 = 1 with q = k^2 = E^2 - m^2
        for e in (-6.3, -1.1, 0.4, 1.7, 2.2, 5.9):
            q = e * e - canonical.mass**2
            c, s = free_pair(q, self.XS)
            assert np.all(np.abs(c * c + q * s * s - 1.0) < 1e-13 * np.maximum(1.0, c * c))

    def test_propagating_regime_is_real(self, canonical):
        k = math.sqrt(3.0**2 - canonical.mass**2)
        c, s = free_pair(k * k, self.XS)
        assert np.allclose(c, np.cos(k * self.XS), rtol=0, atol=1e-14)
        assert np.allclose(s, np.sin(k * self.XS) / k, rtol=0, atol=1e-14)
        assert np.abs(c).max() <= 1.0

    def test_evanescent_regime_is_imaginary(self, canonical):
        q = 1.5**2 - canonical.mass**2
        k = 1j * math.sqrt(-q)  # the branch Im k > 0
        c, s = free_pair(q, self.XS)
        for pair, analytic in ((c, np.cos(k * self.XS)), (s, np.sin(k * self.XS) / k)):
            assert np.abs(analytic.imag).max() == 0.0
            assert np.allclose(pair, analytic.real, rtol=1e-14, atol=0)


class TestPotential:
    def test_depth_at_origin(self, canonical):
        assert potential_s1(canonical, 0.0) == pytest.approx(-2.0, abs=1e-12)

    def test_even_in_x(self, canonical):
        xs = np.random.default_rng(3).uniform(0, 4, 40)
        assert np.allclose(potential_s1(canonical, xs), potential_s1(canonical, -xs), atol=0, rtol=0)

    def test_asymptotic_decay(self, canonical):
        assert abs(potential_s1(canonical, 5.0)) < 1e-6

    def test_reflectionless_depth_identity(self, canonical):
        m, g, lam = canonical.mass, canonical.gamma, canonical.lam
        floor = m - 2 * g * g / (m + lam)
        xs = np.linspace(-5, 5, 2001)
        total = m + potential_s1(canonical, xs)
        assert total.min() == pytest.approx(floor, abs=1e-12)
        assert float(total[np.argmin(total)]) == pytest.approx(m + potential_s1(canonical, 0.0))
        assert floor == pytest.approx(0.0, abs=1e-12)

    def test_periodization_continuous_at_cell_boundary(self, canonical):
        a = canonical.half_period
        assert potential_s1(canonical, a) == potential_s1(canonical, -a)
        per = periodized_potential(canonical)
        assert per(a - 1e-12) == pytest.approx(per(-a + 1e-12), abs=1e-10)
        assert per(0.0) == pytest.approx(per(canonical.period), abs=1e-15)


class TestWFunctions:
    def test_saturation(self, canonical):
        g = canonical.gamma
        w1, w2 = w_functions(canonical, 50.0)
        assert w1 == pytest.approx(g, abs=1e-12)
        assert w2 == pytest.approx(g, abs=1e-12)
        w1, w2 = w_functions(canonical, -50.0)
        assert w1 == pytest.approx(-g, abs=1e-12)
        assert w2 == pytest.approx(-g, abs=1e-12)

    def test_alpha_sign_swap(self, canonical):
        flipped = ModelParams(
            canonical.mass, canonical.gamma, canonical.half_period,
            alpha_override=-canonical.alpha,
        )
        xs = np.linspace(-2, 2, 17)
        w1, _ = w_functions(canonical, xs)
        _, w2f = w_functions(flipped, xs)
        assert np.allclose(w1, w2f, atol=1e-15)

    def test_reflection_sign_regression(self, canonical):
        a = canonical.half_period
        w1_neg, w2_neg = w_functions(canonical, -a)
        w1_pos, w2_pos = w_functions(canonical, a)
        # the minus signs are the measured truth for the tanh forms
        assert w1_neg == pytest.approx(-w2_pos, abs=1e-14)
        assert w2_neg == pytest.approx(-w1_pos, abs=1e-14)
        assert w2_pos == pytest.approx(W2_AT_A, abs=1e-13)


#: energies of the oracle comparisons: E = 0, both mass shells and all
#: three regimes of the canonical set
ORACLE_ENERGIES = (0.0, 2.0, -2.0, 0.5, 1.5, 3.0, 6.0)
#: the canonical lambda as the model computes it, 1 + 2^-52: E^2 - m^2 +
#: gamma^2 is exactly 0 there, the removable pole of U's product form
LAM = ModelParams.from_lambda(2.0, 1.0, 1.0).lam


def _monodromy(params, energy):
    """U(a) adj U(-a), the transfer matrix over one period."""
    a = params.half_period
    (u11, u12), (u21, u22) = fundamental_matrix(params, energy, -a)
    return fundamental_matrix(params, energy, a) @ np.array([[u22, -u12], [-u21, u11]])


class TestBasisSpinors:
    def test_unit_wronskian_across_both_regimes(self, canonical):
        magnitudes = (0.25, 0.52, 0.79, 1.15, 1.42, 1.69, 2.3, 2.9, 3.7, 4.8)
        xs = np.linspace(-2.2, 2.2, 20)
        worst = 0.0
        for e in (s * e for e in magnitudes for s in (1, -1)):
            (u11, u12), (u21, u22) = fundamental_matrix(canonical, e, xs)
            worst = max(worst, float(np.max(np.abs(u11 * u22 - u12 * u21 - 1.0))))
        assert worst < 1e-10

    def test_evanescent_point_value(self, canonical):
        psi, phi = basis_spinors(canonical, 1.5, 0.4)
        assert abs(psi[0] * phi[1] - psi[1] * phi[0] - 1.0) < 1e-10

    @pytest.mark.parametrize("energy", ORACLE_ENERGIES)
    def test_identity_at_origin(self, canonical, energy):
        u = fundamental_matrix(canonical, energy, 0.0)
        assert np.abs(u - np.eye(2)).max() <= 4 * np.finfo(float).eps

    def test_columns_broadcast_over_x(self, canonical):
        xs = np.linspace(-2.0, 2.0, 9).reshape(3, 3)
        psi, phi = basis_spinors(canonical, 1.5, xs)
        assert psi.shape == phi.shape == (2, 3, 3)
        for i, x in enumerate(xs.ravel()):
            p1, f1 = basis_spinors(canonical, 1.5, float(x))
            assert np.array_equal(psi.reshape(2, -1)[:, i], p1)
            assert np.array_equal(phi.reshape(2, -1)[:, i], f1)

    def test_energy_grid_matches_per_energy_calls(self, canonical):
        # |E| < lam, lam < |E| < m and |E| > m, with E = 0, E = +-lam and E = +-m
        energies = np.array([0.0, 0.3, -0.9, LAM, -LAM, 1.5, -1.7, 2.0, -2.0, 3.0, -4.8])
        xs = np.linspace(-2.2, 2.2, 7)
        psi, phi = basis_spinors(canonical, energies[:, None], xs)
        assert psi.shape == phi.shape == (2, energies.size, xs.size)
        for i, e in enumerate(energies):
            p1, f1 = basis_spinors(canonical, float(e), xs)
            assert psi[:, i].tobytes() == p1.tobytes(), e
            assert phi[:, i].tobytes() == f1.tobytes(), e

    def test_matches_oracle_transfer_matrix(self, canonical):
        es = np.array(ORACLE_ENERGIES)
        m11, m12, m21, m22 = _propagate(
            periodized_potential(canonical), canonical.mass, es, np.linspace(-1.0, 1.0, 20001)
        )
        for i, e in enumerate(es):
            oracle = np.array([[m11[i], m12[i]], [m21[i], m22[i]]])
            err = np.abs(_monodromy(canonical, e) - oracle).max()
            assert err <= 1e-12 * max(1.0, np.abs(oracle).max())

    @pytest.mark.parametrize("energy", ORACLE_ENERGIES + (LAM, -LAM, 1.0 + 1e-3, 1.0 - 1e-3, -1.0 - 1e-3))
    def test_trace_is_discriminant(self, canonical, energy):
        d = float(lyapunov_many(canonical, [energy])[0])
        assert abs(np.trace(_monodromy(canonical, energy)) - d) <= 1e-12 * max(1.0, abs(d))

    def test_solves_transformed_equation(self, canonical):
        pot = soliton_potential(canonical)
        for column in (0, 1):
            solution = lambda x: basis_spinors(canonical, 3.0, x)[column]
            assert hamiltonian_residual(solution, pot, canonical.mass, 3.0, 0.2, h=1e-4) < 1e-6

    @pytest.mark.parametrize("set_index", [0, 2])
    def test_accurate_near_the_bound_state_energies(self, set_index):
        # the canonical set and m=2.4390, gamma=1.7585, a=1.0834 against U's
        # product form in 50 digits, where the pole cancels exactly
        mpmath = pytest.importorskip("mpmath")
        p = oracle_sets(1)[set_index]
        params = ModelParams(p.mass, p.gamma, p.half_period)
        xs = np.linspace(-2.2, 2.2, 23)
        for delta in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3):
            for energy in (params.lam * (1 + delta), -params.lam * (1 + delta)):
                got = fundamental_matrix(params, energy, xs)
                with mpmath.workdps(50):
                    want = np.array([_product_form(mpmath, params, energy, x) for x in xs])
                scale = np.maximum(1.0, np.abs(want).max(axis=(1, 2)))
                err = np.abs(np.moveaxis(got, -1, 0) - want).max(axis=(1, 2))
                assert (err <= 1e-13 * scale).all(), (energy, float((err / scale).max()))

    @pytest.mark.parametrize("energy", [0.0, 2.0, -2.0, 2.0 + 1e-12, LAM, -LAM])
    def test_regular_at_zero_and_mass_shell(self, canonical, energy):
        (u11, u12), (u21, u22) = fundamental_matrix(canonical, energy, np.linspace(-2, 2, 9))
        assert np.isfinite([u11, u12, u21, u22]).all()
        assert det_drift(u11, u12, u21, u22).max() < 1e-14

    def test_corrupted_alpha_fails_wronskian_check(self):
        for p in oracle_sets(1):  # the canonical set and 63 seeded ones
            alpha = ModelParams(p.mass, p.gamma, p.half_period).alpha
            bad = ModelParams(p.mass, p.gamma, p.half_period, alpha_override=1.1 * alpha)
            assert not check_wronskian_unity(bad).passed, p

    def test_corrupted_alpha_fails_darboux_checks(self):
        for p in oracle_sets(1):
            alpha = ModelParams(p.mass, p.gamma, p.half_period).alpha
            bad = ModelParams(p.mass, p.gamma, p.half_period, alpha_override=1.1 * alpha)
            assert not check_intertwining(bad).passed, p
            assert not check_darboux_consistency(bad).passed, p

    def test_shifted_transform_fails_intertwining(self, monkeypatch):
        s1 = darboux.transformed_potential
        monkeypatch.setattr(darboux, "transformed_potential", lambda p, x: s1(p, x) + 0.1)
        for p in oracle_sets(1):
            assert not check_intertwining(ModelParams(p.mass, p.gamma, p.half_period)).passed, p

    def test_wrong_energy_fails_residual_check(self, canonical, monkeypatch):
        spinors = soliton.basis_spinors
        monkeypatch.setattr(soliton, "basis_spinors", lambda p, e, x: spinors(p, e + 0.1, x))
        residual, _ = check_solution_residuals(canonical)
        assert not residual.passed


def _product_form(mpmath, params, energy, x):
    """U(x; E) = B(x) (C I + S A0) adj B(0) / (q + gamma^2) at the working
    precision of mpmath, as floats; q < 0."""
    m, g, e, x = (mpmath.mpf(v) for v in (params.mass, params.gamma, energy, x))
    alpha = mpmath.log((m - g) / (m + g)) / 4

    def b(t):
        return mpmath.matrix([[m - g * mpmath.tanh(g * t - alpha), -e],
                              [e, -m - g * mpmath.tanh(g * t + alpha)]])

    q = e * e - m * m
    kap = mpmath.sqrt(-q)
    free = mpmath.cosh(kap * x) * mpmath.eye(2) + mpmath.sinh(kap * x) / kap * mpmath.matrix([[m, -e], [e, -m]])
    b0 = b(0)
    adj = mpmath.matrix([[b0[1, 1], -b0[0, 1]], [-b0[1, 0], b0[0, 0]]])
    u = b(x) * free * adj / (q + g * g)
    return np.array([[float(u[i, j]) for j in range(2)] for i in range(2)])


def bound_state(params, column):
    """Bound state 0 (E = +lam) or 1 (E = -lam) as a function of x."""
    return lambda x: bound_states(params, x)[column]


class TestBoundStates:
    def test_residual_at_plus_lambda(self, canonical):
        pot = soliton_potential(canonical)
        v1 = bound_state(canonical, 0)
        assert hamiltonian_residual(v1, pot, canonical.mass, canonical.lam, 0.5, h=1e-4) < 1e-6

    def test_residual_at_minus_lambda(self, canonical):
        pot = soliton_potential(canonical)
        v2 = bound_state(canonical, 1)
        assert hamiltonian_residual(v2, pot, canonical.mass, -canonical.lam, 0.5, h=1e-4) < 1e-6

    def test_decay_rate(self, canonical):
        v1, _ = bound_states(canonical, np.array([3.0, 4.0]))
        near, far = np.hypot(*v1)
        assert abs(near / far - math.exp(canonical.gamma)) < 0.05 * math.exp(canonical.gamma)

    def test_finite_and_nonzero_at_origin(self, canonical):
        for v in bound_states(canonical, 0.0):
            assert 0.0 < np.hypot(*v) < math.inf

    def test_no_singularity_over_wide_grid(self, canonical):
        for v in bound_states(canonical, np.linspace(-8, 8, 321)):
            norm = np.hypot(*v)
            assert np.all((norm > 0.0) & np.isfinite(norm))

    def test_decayed_to_zero_far_out(self, canonical):
        # cosh(gamma x -+ alpha) overflows past |x| ~ 410: the states read 0
        for x in (500.0, -500.0):
            for v in bound_states(canonical, x):
                assert np.array_equal(v, [0.0, 0.0])
        v1, v2 = bound_states(canonical, np.array([-500.0, 0.3, 500.0]))
        assert np.array_equal(v1[:, 1], bound_states(canonical, 0.3)[0])

    def test_libm_bits_at_verify_points(self, canonical):
        # residual-order reads the residuals on their rounding floor, so the
        # states keep libm's cosh bit for bit at the points verify samples
        g, al = canonical.gamma, canonical.alpha
        for h in (1e-4, 5e-5):
            for x in np.array([0.3, -0.7, 1.1])[:, None] + np.array([-h, 0.0, h]):
                half_m = np.array([1.0 / (2.0 * math.cosh(g * xi - al)) for xi in x])
                half_p = np.array([1.0 / (2.0 * math.cosh(g * xi + al)) for xi in x])
                v1, v2 = bound_states(canonical, x)
                assert v1.tobytes() == np.array([half_m, half_p]).tobytes()
                assert v2.tobytes() == np.array([-half_m, half_p]).tobytes()

    def test_columns_broadcast_over_x(self, canonical):
        xs = np.linspace(-3.0, 3.0, 9).reshape(3, 3)
        v1, v2 = bound_states(canonical, xs)
        assert v1.shape == v2.shape == (2, 3, 3)
        for i, x in enumerate(xs.ravel()):
            a, b = bound_states(canonical, float(x))
            assert np.array_equal(v1.reshape(2, -1)[:, i], a)
            assert np.array_equal(v2.reshape(2, -1)[:, i], b)
