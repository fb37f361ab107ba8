import math

import numpy as np
import pytest

from diracband import (
    ModelParams,
    ScalarPotential,
    StepCountTooSmall,
    lyapunov_many,
    lyapunov_numeric_many,
    monodromy,
    periodized_potential,
)
from diracband.soliton import fold_into_cell
from diracband.verify import check_oracle_equivalence

A = 1.0
MASS = 2.0


def trace_at(potential, m, energy, steps):
    """The oracle's discriminant at one energy."""
    return float(lyapunov_numeric_many(potential, m, np.array([energy]), A, steps)[0])


def stepwise_propagate(potential, m, energies, x0, period, steps):
    """The RK4 recurrence one step at a time over the whole period: the
    reference the blocked product in ``monodromy._propagate`` regroups."""
    e = np.asarray(energies, dtype=float)
    h = period / steps
    xs = x0 + h * np.arange(steps + 1)
    s_node = m + potential.values(xs)
    s_half = m + potential.values(xs[:-1] + 0.5 * h)

    m11 = np.ones_like(e)
    m12 = np.zeros_like(e)
    m21 = np.zeros_like(e)
    m22 = np.ones_like(e)

    def rate(s, a11, a12, a21, a22):
        return (
            s * a11 - e * a21,
            s * a12 - e * a22,
            e * a11 - s * a21,
            e * a12 - s * a22,
        )

    hh = 0.5 * h
    for i in range(steps):
        s0, sm, s1 = s_node[i], s_half[i], s_node[i + 1]
        k1 = rate(s0, m11, m12, m21, m22)
        k2 = rate(sm, m11 + hh * k1[0], m12 + hh * k1[1], m21 + hh * k1[2], m22 + hh * k1[3])
        k3 = rate(sm, m11 + hh * k2[0], m12 + hh * k2[1], m21 + hh * k2[2], m22 + hh * k2[3])
        k4 = rate(s1, m11 + h * k3[0], m12 + h * k3[1], m21 + h * k3[2], m22 + h * k3[3])
        w = h / 6.0
        m11 = m11 + w * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        m12 = m12 + w * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        m21 = m21 + w * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        m22 = m22 + w * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    return m11, m12, m21, m22


def square_well(params):
    """A tabulated well, interpolated as ``--potential-file`` does: the
    jumps at x = +-a/2 are one table interval wide."""
    xs = np.linspace(-params.half_period, params.half_period, 401)
    ss = np.where(np.abs(xs) < 0.5 * params.half_period, -1.2, 0.0)
    return ScalarPotential(lambda x: np.interp(fold_into_cell(params, x), xs, ss), "square well")


class TestFreeParticle:
    """Constant coefficients solve in closed form; the integrator must
    reproduce trace = 2 cos(2 k a)."""

    @pytest.mark.parametrize("energy", [2.5, 3.7, 6.0, 7.9])
    def test_trace_matches_closed_form(self, energy):
        k = math.sqrt(energy * energy - MASS * MASS)
        trace = trace_at(ScalarPotential.zero(), MASS, energy, steps=10000)
        assert abs(trace - 2.0 * math.cos(2.0 * k * A)) < 1e-9

    def test_negative_energy_matches_too(self):
        k = math.sqrt(9.0 - 4.0)
        trace = trace_at(ScalarPotential.zero(), MASS, -3.0, steps=10000)
        assert abs(trace - 2.0 * math.cos(2.0 * k * A)) < 1e-9


class TestMonodromyInvariants:
    def test_determinant_conserved(self, canonical):
        pot = periodized_potential(canonical)
        es = np.random.default_rng(12).uniform(-8, 8, 20)
        m11, m12, m21, m22 = monodromy._propagate(pot, canonical.mass, es, -A, 2 * A, 2000)
        assert np.all(np.abs(m11 * m22 - m12 * m21 - 1.0) < 1e-8)

    def test_trace_invariant_under_start_shift(self, canonical):
        pot = periodized_potential(canonical)

        def trace_from(x0):
            m11, _, _, m22 = monodromy._propagate(pot, canonical.mass, np.array([3.3]), x0, 2 * A, 4000)
            return float(m11[0] + m22[0])

        assert abs(trace_from(-A) - trace_from(0.0)) < 1e-8

    def test_band_edge_regression_point(self, canonical):
        # 2.164 is a reference band edge; the trace must sit at -2 there
        trace = trace_at(periodized_potential(canonical), canonical.mass, 2.164, steps=4000)
        assert abs(abs(trace) - 2.0) < 2e-3

    def test_fourth_order_convergence(self, canonical):
        # E picked where the leading h^4 error coefficient is healthy; the
        # reference at 2^16 steps is converged far below the measured errors
        pot = periodized_potential(canonical)
        e = 5.1
        ref = trace_at(pot, canonical.mass, e, steps=2**16)
        err1 = abs(trace_at(pot, canonical.mass, e, steps=250) - ref)
        err2 = abs(trace_at(pot, canonical.mass, e, steps=500) - ref)
        assert 12.0 < err1 / err2 < 20.0

    def test_matches_closed_form(self, canonical):
        rng = np.random.default_rng(13)
        es = np.array([e for e in rng.uniform(-8, 8, 12) if abs(abs(e) - canonical.mass) > 0.05])
        numeric = lyapunov_numeric_many(
            periodized_potential(canonical), canonical.mass, es, A, steps=4000
        )
        closed = lyapunov_many(canonical, es)
        assert np.abs(numeric - closed).max() < 1e-6


class TestBlockedProduct:
    """The blocked product must reproduce the step-by-step loop to
    rounding, with one-step and multi-step blocks, odd block counts, and
    step counts the block length does not divide (padded last block)."""

    @pytest.mark.parametrize(
        "profile, n_energies, steps",
        [
            ("soliton", 1, 2**16),
            ("soliton", 40, 20000),
            ("soliton", 701, 250),
            ("soliton", 40, 101),
            ("square-well", 1, 20000),
            ("square-well", 40, 250),
            ("square-well", 701, 101),
        ],
    )
    def test_matches_stepwise_loop(self, canonical, profile, n_energies, steps):
        pot = periodized_potential(canonical) if profile == "soliton" else square_well(canonical)
        es = np.random.default_rng(n_energies).uniform(-8.0, 8.0, n_energies)
        args = (pot, canonical.mass, es, -A, 2 * A, steps)
        b11, b12, b21, b22 = monodromy._propagate(*args)
        r11, r12, r21, r22 = stepwise_propagate(*args)
        trace_ref = r11 + r22
        assert np.all(np.abs(b11 + b22 - trace_ref) <= 1e-12 * np.maximum(1.0, np.abs(trace_ref)))
        # det M cancels products of size |m11 m22| + |m12 m21|
        det_scale = np.maximum(1.0, np.abs(r11 * r22) + np.abs(r12 * r21))
        det_gap = np.abs((b11 * b22 - b12 * b21) - (r11 * r22 - r12 * r21))
        assert np.all(det_gap <= 1e-12 * det_scale)

    def test_keeps_energy_shape(self, canonical):
        pot = periodized_potential(canonical)
        es = np.array([[2.5, 3.5, 4.5], [-2.5, -3.5, -4.5]])
        traces = lyapunov_numeric_many(pot, canonical.mass, es, A, steps=1000)
        flat = lyapunov_numeric_many(pot, canonical.mass, es.ravel(), A, steps=1000)
        assert traces.shape == es.shape
        assert np.array_equal(traces.ravel(), flat)

    def test_empty_energies(self, canonical):
        pot = periodized_potential(canonical)
        traces = lyapunov_numeric_many(pot, canonical.mass, np.array([]), A)
        assert traces.shape == (0,)


class TestGuards:
    DRIFT_MESSAGE = r"^det drifted by \S+ at E=7\.9 with 100 steps; refine$"

    def test_step_count_too_small(self, canonical):
        pot = periodized_potential(canonical)
        with pytest.raises(StepCountTooSmall, match=self.DRIFT_MESSAGE):
            lyapunov_numeric_many(pot, canonical.mass, np.array([7.9]), A, steps=100)

    def test_sweep_names_the_worst_energy(self, canonical):
        pot = periodized_potential(canonical)
        with pytest.raises(StepCountTooSmall, match=self.DRIFT_MESSAGE):
            lyapunov_numeric_many(pot, canonical.mass, np.array([2.5, 7.9, 3.0]), A, steps=100)

    def test_non_finite_monodromy_raises(self, canonical):
        # NaN > limit is false, so a NaN drift must fail the check, not pass it
        nan_potential = ScalarPotential(lambda x: np.full(np.shape(x), np.nan), "NaN")
        with np.errstate(invalid="ignore"), pytest.raises(StepCountTooSmall, match="by nan"):
            lyapunov_numeric_many(nan_potential, canonical.mass, np.array([2.5, 3.0]), A)

    def test_large_monodromy_is_not_a_drift(self):
        # strongly evanescent cell: max|M_ij|^2 reaches ~9e16, so rounding
        # in m11*m22 - m12*m21 alone moves det M by up to 0.25
        params = ModelParams(mass=5.0, gamma=0.7, half_period=2.0)
        es = np.linspace(0.0, params.mass, 401)
        traces = lyapunov_numeric_many(periodized_potential(params), params.mass, es, 2.0)
        closed = lyapunov_many(params, es)
        assert np.max(np.abs(traces - closed) / np.maximum(1.0, np.abs(closed))) < 1e-12

    def test_oracle_equivalence_is_relative(self):
        # |D| reaches 8.8e8 in this evanescent cell: the absolute gap to the
        # oracle is 1.7e-4 at 20000 steps, but 3.7e-12 of |D|
        params = ModelParams(4.292392583703351, 1.1109415490885999, 2.461095340625619)
        assert check_oracle_equivalence(params, steps=20000).passed
        coarse = check_oracle_equivalence(params, steps=500)
        assert not coarse.passed and coarse.residual < 1e-4

    def test_minimum_step_count_enforced(self, canonical):
        pot = periodized_potential(canonical)
        with pytest.raises(ValueError):
            lyapunov_numeric_many(pot, canonical.mass, np.array([3.0]), A, steps=50)
