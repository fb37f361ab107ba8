import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from diracband import (
    ModelParams,
    StepCountTooSmall,
    band_edges,
    cli,
    lyapunov_many,
    lyapunov_numeric_many,
    monodromy,
    periodized_potential,
)
from diracband.bands import energy_grid
from diracband.monodromy import det_drift
from diracband.soliton import fold_into_cell
from diracband.verify import check_oracle_equivalence

A = 1.0
MASS = 2.0


def trace_at(potential, m, energy, steps):
    """The oracle's discriminant at one energy."""
    return float(lyapunov_numeric_many(potential, m, np.array([energy]), A, steps)[0])


def grid(x0, period, steps):
    """``steps`` equal steps from x0 over one period."""
    return x0 + period / steps * np.arange(steps + 1)


def propagate(potential, m, energies, steps, x0=-A):
    """The oracle's fundamental matrix over one period at a fixed count."""
    return monodromy._propagate(potential, m, energies, grid(x0, 2 * A, steps))


def stepwise_propagate(potential, m, energies, xs):
    """The RK4 recurrence one step at a time between the nodes ``xs``: the
    reference the blocked product in ``monodromy._propagate`` regroups."""
    e = np.asarray(energies, dtype=float)
    s_node = m + potential(xs)
    s_half = m + potential(0.5 * (xs[:-1] + xs[1:]))

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

    for i in range(len(xs) - 1):
        h = xs[i + 1] - xs[i]
        hh = 0.5 * h
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


def square_well(params, rows=401, depth=1.2, width=0.5):
    """A tabulated well, interpolated as ``--potential-file`` does: the
    jumps at x = +-width a are one table interval wide."""
    xs = np.linspace(-params.half_period, params.half_period, rows)
    ss = np.where(np.abs(xs) < width * params.half_period, -depth, 0.0)
    return lambda x: np.interp(fold_into_cell(params, x), xs, ss)


class TestFreeParticle:
    """Constant coefficients solve in closed form; the integrator must
    reproduce trace = 2 cos(2 k a)."""

    @pytest.mark.parametrize("energy", [2.5, 3.7, 6.0, 7.9])
    def test_trace_matches_closed_form(self, energy):
        k = math.sqrt(energy * energy - MASS * MASS)
        trace = trace_at(np.zeros_like, MASS, energy, steps=10000)
        assert abs(trace - 2.0 * math.cos(2.0 * k * A)) < 1e-9

    def test_negative_energy_matches_too(self):
        k = math.sqrt(9.0 - 4.0)
        trace = trace_at(np.zeros_like, MASS, -3.0, steps=10000)
        assert abs(trace - 2.0 * math.cos(2.0 * k * A)) < 1e-9


class TestMonodromyInvariants:
    def test_determinant_conserved(self, canonical):
        pot = periodized_potential(canonical)
        es = np.random.default_rng(12).uniform(-8, 8, 20)
        m11, m12, m21, m22 = propagate(pot, canonical.mass, es, 2000)
        assert np.all(np.abs(m11 * m22 - m12 * m21 - 1.0) < 1e-8)

    def test_trace_invariant_under_start_shift(self, canonical):
        pot = periodized_potential(canonical)

        def trace_from(x0):
            m11, _, _, m22 = propagate(pot, canonical.mass, np.array([3.3]), 4000, x0)
            return float(m11[0] + m22[0])

        assert abs(trace_from(-A) - trace_from(0.0)) < 1e-8

    def test_band_edge_regression_point(self, canonical):
        # 2.164 is a reference band edge; the trace must sit at -2 there
        trace = trace_at(periodized_potential(canonical), canonical.mass, 2.164, steps=4000)
        assert abs(abs(trace) - 2.0) < 2e-3

    def test_fourth_order_convergence(self, canonical):
        # E picked where the leading h^4 error coefficient is healthy; the
        # reference at 2^16 steps is converged far below the measured errors.
        # Fixed counts, without the oracle's step doubling
        pot = periodized_potential(canonical)

        def fixed_trace(steps):
            m11, _, _, m22 = propagate(pot, canonical.mass, np.array([5.1]), steps)
            return float(m11[0] + m22[0])

        ref = fixed_trace(2**16)
        err1 = abs(fixed_trace(250) - ref)
        err2 = abs(fixed_trace(500) - ref)
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
    rounding, with one-step and multi-step blocks, odd block counts, step
    counts the block length does not divide (padded last block), and one
    to eight steps fused (1, 20, 40 and 701 energies; 100 energies at 101
    steps pad blocks of two steps to eight)."""

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
            ("soliton", 20, 20000),
            ("square-well", 100, 101),
        ],
    )
    def test_matches_stepwise_loop(self, canonical, profile, n_energies, steps):
        pot = periodized_potential(canonical) if profile == "soliton" else square_well(canonical)
        es = np.random.default_rng(n_energies).uniform(-8.0, 8.0, n_energies)
        self.assert_matches_stepwise_loop(pot, canonical.mass, es, grid(-A, 2 * A, steps))

    def test_matches_stepwise_loop_on_uneven_steps(self, canonical):
        # steps of different lengths, as on a table with uneven rows
        xs = np.sort(np.r_[-A, A, np.random.default_rng(5).uniform(-A, A, 300)])
        es = np.random.default_rng(6).uniform(-8.0, 8.0, 70)
        self.assert_matches_stepwise_loop(square_well(canonical), canonical.mass, es, xs)

    def test_matches_stepwise_loop_at_high_energies(self, canonical):
        # wider energies give the step's E^2 and E^4 terms more weight
        es = np.random.default_rng(30).uniform(-30.0, 30.0, 40)
        self.assert_matches_stepwise_loop(periodized_potential(canonical), canonical.mass, es, grid(-A, 2 * A, 20000))

    @pytest.mark.parametrize("profile", ["soliton", "square-well"])
    def test_mirrors_and_repeats_are_exact(self, canonical, profile):
        # A(-E) = sigma_z A(E) sigma_z and each RK4 step keeps it exactly, so
        # E and -E share one integration: m11, m22 equal, m12, m21 negated
        pot = periodized_potential(canonical) if profile == "soliton" else square_well(canonical)
        es = np.array([[0.0, 1.7, 3.3, -1.7, 7.9, 2.0], [-3.3, -0.0, 3.3, -7.9, 1.7, -2.0]])
        entries = propagate(pot, canonical.mass, es, 2000)
        assert all(entry.shape == es.shape for entry in entries)
        m11, m12, m21, m22 = (entry.ravel() for entry in entries)
        flat = es.ravel()
        sign = np.where(flat < 0, -1.0, 1.0)
        same = np.abs(flat)[:, None] == np.abs(flat)[None, :]
        for entry in (m11, m22, sign * m12, sign * m21):
            assert np.all((entry[:, None] == entry[None, :])[same])
        # a repeated call returns the same bits
        again = propagate(pot, canonical.mass, es, 2000)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again, entries))
        # every distinct |E| goes through one matrix product with the others,
        # so the other energies of a call (mirrors, repeats, random
        # neighbours; 12 and 64 fuse no steps and eight) may move an
        # energy's last bits, by at most 1e-14 of max(1, |D|)
        d = m11[1] + m22[1]
        rng = np.random.default_rng(7)
        for size in (flat.size, 64):
            mirrored = np.resize(flat, size)
            mirrored[size // 2:] = -mirrored[: size - size // 2]
            neighbour_sets = [mirrored, np.linspace(10.0, 11.0, size)]
            neighbour_sets += [rng.uniform(-8.0, 8.0, size) for _ in range(4)]
            for others in neighbour_sets:
                others[1] = flat[1]
                n11, _, _, n22 = propagate(pot, canonical.mass, others, 2000)
                assert abs(n11[1] + n22[1] - d) <= 1e-14 * max(1.0, abs(d))
        self.assert_matches_stepwise_loop(pot, canonical.mass, flat, grid(-A, 2 * A, 2000))

    @staticmethod
    def assert_matches_stepwise_loop(pot, m, es, xs):
        args = (pot, m, es, xs)
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


def workspace_call(n_energies, steps):
    """The bits of the oracle's fundamental matrix on the canonical set, at
    ``n_energies`` random energies and ``steps`` steps."""
    params = ModelParams.from_lambda(mass=MASS, lam=1.0, half_period=A)
    es = np.random.default_rng(n_energies).uniform(-8.0, 8.0, n_energies)
    return np.concatenate(propagate(periodized_potential(params), MASS, es, steps)).tobytes()


class TestWorkspace:
    """Each thread keeps its work arrays between calls (``monodromy._work``);
    no call may read what another left in them."""

    #: (energies, steps): one, four and eight steps fused, 5 to 4,000 blocks
    CALLS = [(1, 8000), (701, 250), (40, 2000), (1, 250), (701, 4000), (40, 8000)]

    def test_calls_do_not_depend_on_earlier_calls(self):
        # each call as the first of a fresh interpreter, then interleaved
        # here in two orders, after whatever the suite ran before
        env = dict(os.environ, PYTHONPATH=str(Path(monodromy.__file__).resolve().parents[1]))
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import test_monodromy as t; "
                  "sys.stdout.write(t.workspace_call(*map(int, sys.argv[2:])).hex())")
        fresh = {}
        for call in self.CALLS:
            proc = subprocess.run(
                [sys.executable, "-c", script, str(Path(__file__).parent), *map(str, call)],
                capture_output=True, text=True, timeout=120, env=env, check=True,
            )
            fresh[call] = bytes.fromhex(proc.stdout)
        for order in (self.CALLS, self.CALLS[::-2] + self.CALLS[-2::-2]):
            for call in order:
                assert workspace_call(*call) == fresh[call], call

    def test_threads_keep_their_own_workspace(self):
        # three threads (more than the two cores of the bench host) with
        # calls of different sizes; one pool shared between them would mix
        # their arrays
        calls, rounds = self.CALLS[:3], 8
        serial = [workspace_call(*call) for call in calls]
        results = [[] for _ in calls]

        def run(call, out):
            for _ in range(rounds):
                out.append(workspace_call(*call))

        threads = [threading.Thread(target=run, args=job) for job in zip(calls, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[bits] * rounds for bits in serial]


@pytest.fixture
def passes(monkeypatch):
    """(steps, tr M, largest det drift) of every ``_propagate`` call, in
    call order."""
    calls = []
    propagate = monodromy._propagate

    def recording(potential, m, energies, xs):
        entries = propagate(potential, m, energies, xs)
        drift = det_drift(*entries)
        calls.append((len(xs) - 1, entries[0] + entries[3], drift.max(initial=0.0)))
        return entries

    monkeypatch.setattr(monodromy, "_propagate", recording)
    return calls


def counts(passes):
    return [steps for steps, _, _ in passes]


#: a deep cell (gamma a ~ 11) whose bound-state band, 1.8e-8 wide around
#: E = lambda, needs the oracle's full step budget
DEEP = ModelParams(mass=4.613, gamma=4.235, half_period=2.621)
DEEP_EDGE = 1.8288094398343047


class TestStepDoubling:
    def test_canonical_set_stops_at_the_first_pair(self, canonical, passes):
        # |E| <= 8 at a = 1: 2 a omega / 0.025 = 640, so 1000 steps first
        pot = periodized_potential(canonical)
        result = check_oracle_equivalence(canonical)
        assert result.passed and "doubled from 1000 until" in result.detail
        assert counts(passes) == [1000, 2000]
        passes.clear()
        edges = np.array(band_edges(canonical, e_max=7.0).edges)
        lyapunov_numeric_many(pot, canonical.mass, edges, A)
        assert counts(passes) == [1000, 2000]

    def test_first_count_follows_the_cell(self, canonical):
        pot = periodized_potential(canonical)
        # omega is the largest of |E| and |m + S|: here m = 2 at the cell's ends
        # and 2 a omega / N <= 0.025 at N = 250 * 2**k
        assert monodromy.first_steps(pot, canonical.mass, [0.5], A) == 250
        assert monodromy.first_steps(pot, canonical.mass, [3.1], A) == 250
        assert monodromy.first_steps(pot, canonical.mass, [-3.2], A) == 500
        assert monodromy.first_steps(pot, canonical.mass, [6.3, 1.0], A) == 1000
        assert monodromy.first_steps(pot, canonical.mass, [100.0], A) == 8000
        # beyond the cap the cap is the first and only count
        assert monodromy.first_steps(pot, canonical.mass, [1e5], A) == monodromy.MAX_STEPS
        assert monodromy.first_steps(pot, canonical.mass, [np.inf], A) == monodromy.MAX_STEPS
        assert isinstance(monodromy.DEFAULT_STEPS, int)
        # on knots every interval takes the same number of steps, from
        # ceil(250 / intervals): 3 * 2 for 100 intervals, 25 * 4 for 10
        xs = np.linspace(-A, A, 101)
        assert monodromy.first_steps(pot, canonical.mass, [7.0], A, knots=xs) == 600
        assert monodromy.first_steps(pot, canonical.mass, [7.0], A, knots=xs[::10]) == 1000
        # knots outside the cell, and repeated ones, cut nothing
        wide = np.r_[xs, xs, np.linspace(1.5, 3.0, 50)]
        assert monodromy.first_steps(pot, canonical.mass, [7.0], A, knots=wide) == 600

    def test_deep_cell_escalates_to_the_cap(self, passes):
        # the band's lower edge; at its upper edge the closed form itself
        # is 1.5e-5 off, by cancellation, whatever the step count
        edges = band_edges(DEEP, e_max=3.0).edges
        assert DEEP_EDGE in edges
        d = lyapunov_numeric_many(periodized_potential(DEEP), DEEP.mass, np.array([DEEP_EDGE]), DEEP.half_period)
        assert counts(passes) == [1000, 2000, 4000, 8000, 16000, 32000]
        assert abs(d[0] - lyapunov_many(DEEP, [DEEP_EDGE])[0]) < 1e-5

    @pytest.mark.xfail(strict=True, raises=StepCountTooSmall, reason=(
        "ROADMAP item 10: at E = +-lambda of this wide cell max|M_ij| is about 9e30, and the "
        "rounding of the block grouping drifts det M by 5.83e-06 at the 32000-step cap"))
    def test_wide_cell_edges_are_answered(self):
        # the edges of m = 2, gamma = 1, a = 50 over |E| <= 7, as literals, so that no change
        # to band_edges moves this call: the bound-state band is narrower than a float there,
        # and its two edges coincide
        params = ModelParams(mass=2.0, gamma=1.0, half_period=50.0)
        es = np.array([-2.0, -1.732050807568875, 1.732050807568875, 2.0])
        d = lyapunov_numeric_many(periodized_potential(params), params.mass, es, params.half_period)
        assert np.isfinite(d).all()

    def test_cap_is_respected_without_raising(self, passes, monkeypatch):
        monkeypatch.setattr(monodromy, "MAX_STEPS", 12000)
        e = np.array([DEEP_EDGE])
        d = lyapunov_numeric_many(periodized_potential(DEEP), DEEP.mass, e, DEEP.half_period)
        assert counts(passes) == [1000, 2000, 4000, 8000]
        # unresolved at the cap, and D at the last count is returned
        (_, coarse, _), (_, fine, _) = passes[-2:]
        assert abs(fine - coarse)[0] > monodromy.ERROR_TARGET
        assert d[0] == fine[0]
        # a first count above half the cap is the only count
        passes.clear()
        lyapunov_numeric_many(periodized_potential(DEEP), DEEP.mass, e, DEEP.half_period, steps=7000)
        assert counts(passes) == [7000]

    def test_drift_below_the_cap_is_refined(self, canonical, passes):
        pot = periodized_potential(canonical)
        d = lyapunov_numeric_many(pot, canonical.mass, np.array([7.9]), A, steps=100)
        assert counts(passes) == [100, 200, 400, 800]
        assert abs(d[0] - lyapunov_many(canonical, [7.9])[0]) < 1e-7

    def test_high_energy_is_answered(self, canonical, passes):
        # h|E| = 0.1 at 2000 steps drifts det M by 2.8e-5; the first count
        # from the cell, 8000, does not drift, and the fixed 20000-step
        # oracle answered this energy
        pot = periodized_potential(canonical)
        d = lyapunov_numeric_many(pot, canonical.mass, np.array([100.0]), A)
        assert counts(passes)[0] == 8000
        assert max(drift for _, _, drift in passes) <= monodromy.DET_DRIFT_LIMIT
        assert abs(d[0] - lyapunov_many(canonical, [100.0])[0]) < 1e-7

    def test_wide_verified_table_integrates_no_drifting_count(self, canonical, passes, tmp_path):
        # bands --verify --emax 100: 127 edges, from 8000 steps on; a first
        # count of 2000 would drift and be thrown away
        out = tmp_path / "bands.json"
        assert cli.main(["bands", "--emax", "100", "--verify", "--out", str(out)]) == 0
        assert counts(passes) == [8000, 16000]
        assert max(drift for _, _, drift in passes) <= monodromy.DET_DRIFT_LIMIT
        rows = json.loads(out.read_text())["data"]["verification"]
        assert max(row["residual"] for row in rows) < 1e-6

    def test_drift_at_the_last_count_raises(self, canonical, passes, monkeypatch):
        monkeypatch.setattr(monodromy, "MAX_STEPS", 100)
        with pytest.raises(StepCountTooSmall, match=TestGuards.DRIFT_MESSAGE):
            lyapunov_numeric_many(periodized_potential(canonical), canonical.mass, np.array([7.9]), A, steps=100)
        assert counts(passes) == [100]

    def test_estimate_bounds_the_error(self, passes):
        # 64 sets drawn as the benchmark's oracle sets are (m in [0.5, 5],
        # gamma/m in [0.05, 0.95], a in [0.3, 3]), 40 random energies each
        # in |E| <= m + 5.  The floor is the rounding of the two traces;
        # band edges of deep cells are left out, because the closed form
        # cancels there to about 1e-5
        rng = np.random.default_rng(20261019)
        masses, ratios, halves = rng.uniform(0.5, 5.0, 64), rng.uniform(0.05, 0.95, 64), rng.uniform(0.3, 3.0, 64)
        for m, ratio, a in zip(masses, ratios, halves):
            params = ModelParams(float(m), float(m * ratio), float(a))
            es = rng.uniform(-(m + 5.0), m + 5.0, 40)
            passes.clear()
            d = lyapunov_numeric_many(periodized_potential(params), params.mass, es, params.half_period)
            closed = lyapunov_many(params, es)
            (_, coarse, _), (_, fine, _) = passes[-2:]
            scale = np.maximum(1.0, np.abs(closed))
            error = np.abs(d - closed) / scale
            estimate = np.abs(fine - coarse) / scale
            assert np.all(error <= estimate + 1e-12), params


#: the square well of bench seed 4's oracle units, tabulated on 100 rows
WELL = ModelParams(mass=3.4876502155052194, gamma=0.6002621723114197, half_period=1.9610570536646195)


class TestKnots:
    """Steps on a table's rows: each interval between rows is cut into
    equal steps, so RK4 meets one linear piece per step."""

    @staticmethod
    def table(params, rows):
        xs = np.linspace(-params.half_period, params.half_period, rows)
        return square_well(params, rows, depth=3.0025291432956935, width=0.6529142791486509), xs

    def test_uneven_table_is_resolved(self, passes):
        # uniform steps across the kinks of the 99 intervals lose RK4's
        # order: 2000 to 32000 uniform steps returned D 5.9e-7 off
        pot, xs = self.table(WELL, 100)
        es = energy_grid(-(WELL.mass + 5.0), WELL.mass + 5.0, 701)
        d = lyapunov_numeric_many(pot, WELL.mass, es, WELL.half_period, knots=xs)
        assert counts(passes) == [2376, 4752]
        reference = lyapunov_numeric_many(pot, WELL.mass, es, WELL.half_period, steps=400 * 99, knots=xs)
        assert np.all(np.abs(d - reference) <= 1e-7 * np.maximum(1.0, np.abs(reference)))

    def test_table_of_257_rows_stops_early(self, canonical, passes):
        # uniform steps ran 2000 to 32000 steps on this table
        pot, xs = self.table(canonical, 257)
        lyapunov_numeric_many(pot, canonical.mass, energy_grid(-7.0, 7.0, 701), A, knots=xs)
        assert len(passes) <= 3 and counts(passes)[-1] <= 4096

    def test_given_count_is_rounded_up_to_the_rows(self, canonical, passes):
        pot, xs = self.table(canonical, 101)
        lyapunov_numeric_many(pot, canonical.mass, np.array([3.0]), A, steps=1000, knots=xs)
        assert counts(passes)[0] == 1000
        passes.clear()
        lyapunov_numeric_many(pot, canonical.mass, np.array([3.0]), A, steps=1001, knots=xs)
        assert counts(passes)[0] == 1100


class TestGuards:
    DRIFT_MESSAGE = r"^det drifted by \S+ at E=7\.9 with 100 steps; refine$"

    # below the cap a drifting count is refined; a cap of 100 makes the
    # first count of 100 steps the last one
    def test_step_count_too_small(self, canonical, monkeypatch):
        monkeypatch.setattr(monodromy, "MAX_STEPS", 100)
        pot = periodized_potential(canonical)
        with pytest.raises(StepCountTooSmall, match=self.DRIFT_MESSAGE):
            lyapunov_numeric_many(pot, canonical.mass, np.array([7.9]), A, steps=100)

    def test_sweep_names_the_worst_energy(self, canonical, monkeypatch):
        monkeypatch.setattr(monodromy, "MAX_STEPS", 100)
        pot = periodized_potential(canonical)
        with pytest.raises(StepCountTooSmall, match=self.DRIFT_MESSAGE):
            lyapunov_numeric_many(pot, canonical.mass, np.array([2.5, 7.9, 3.0]), A, steps=100)

    def test_unstable_energy_raises_without_warnings(self, canonical):
        # h|E| = 100 at the default first step and 6.25 at the cap: RK4
        # blows up at every count and the entries overflow; the suite turns
        # any RuntimeWarning into an error
        pot = periodized_potential(canonical)
        with pytest.raises(StepCountTooSmall, match=r"^det drifted by nan at E=100000\.0 with 32000 steps; refine$"):
            lyapunov_numeric_many(pot, canonical.mass, np.array([3.0, 1e5]), A)

    def test_non_finite_monodromy_raises(self, canonical):
        # NaN > limit is false, so a NaN drift must fail the check, not pass it
        nan_potential = lambda x: np.full(np.shape(x), np.nan)
        with np.errstate(invalid="ignore"), pytest.raises(StepCountTooSmall, match="by nan"):
            lyapunov_numeric_many(nan_potential, canonical.mass, np.array([2.5, 3.0]), A)

    def test_large_monodromy_is_not_a_drift(self):
        # strongly evanescent cell: max|M_ij|^2 reaches ~9e16, so rounding
        # in m11*m22 - m12*m21 alone moves det M by up to 0.25
        # the default first count stops at 4000 steps, 1e-10 from the closed
        # form; from 10000 the oracle stops at 20000
        params = ModelParams(mass=5.0, gamma=0.7, half_period=2.0)
        es = np.linspace(0.0, params.mass, 401)
        traces = lyapunov_numeric_many(periodized_potential(params), params.mass, es, 2.0, steps=10000)
        closed = lyapunov_many(params, es)
        assert np.max(np.abs(traces - closed) / np.maximum(1.0, np.abs(closed))) < 1e-12

    def test_oracle_equivalence_is_relative(self, monkeypatch):
        # |D| reaches 8.8e8 in this evanescent cell: the absolute gap to the
        # oracle is 1.7e-4 at 20000 steps, but 3.7e-12 of |D|
        params = ModelParams(4.292392583703351, 1.1109415490885999, 2.461095340625619)
        assert check_oracle_equivalence(params).passed
        # a cap of 500 keeps the oracle at its first count of 500 steps
        monkeypatch.setattr(monodromy, "MAX_STEPS", 500)
        coarse = check_oracle_equivalence(params)
        assert not coarse.passed and coarse.residual < 1e-4

    def test_minimum_step_count_enforced(self, canonical):
        pot = periodized_potential(canonical)
        with pytest.raises(ValueError):
            lyapunov_numeric_many(pot, canonical.mass, np.array([3.0]), A, steps=50)
