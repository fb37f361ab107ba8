import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    count_crossings,
    crossing_brackets,
    floquet_multipliers,
    reference_lyapunov_many,
    reference_refine,
)
from inputs import sweep_sets

from diracband import (
    Band,
    ModelParams,
    NotAllowedBand,
    band_edges,
    dispersion,
    lyapunov,
    lyapunov_many,
    lyapunov_numeric_many,
    lyapunov_trace,
    periodized_potential,
)
from diracband import bands
from diracband.bands import energy_grid
from diracband.verify import REFERENCE_EDGES

# ninth |D| = 2 energy below 7, beyond the eight reference values; located
# by bisection and confirmed by the monodromy integrator (both give
# D = 2.000187 at the interior maximum 6.3586)
NINTH_EDGE = 6.365375
NINTH_GAP_INTERIOR = 6.3586


# parameter sets for the oracle comparison at the removable points: the
# canonical model, a deep evanescent cell, a heavy particle with a shallow
# well and a short weak cell
REMOVABLE_POINT_SETS = {
    "canonical": (2.0, math.sqrt(3.0), 1.0),
    "g1.9-a3": (2.0, 1.9, 3.0),
    "m5-g0.7-a2": (5.0, 0.7, 2.0),
    "m1-g0.3-a0.5": (1.0, 0.3, 0.5),
}


def seeded_sets(seed: int, n: int) -> list[ModelParams]:
    """n parameter sets over the whole valid space: m in [0.5, 5],
    gamma/m in [0.05, 0.95], a in [0.3, 3]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        m = rng.uniform(0.5, 5.0)
        out.append(ModelParams(m, m * rng.uniform(0.05, 0.95), rng.uniform(0.3, 3.0)))
    return out


class TestLyapunov:
    @pytest.mark.parametrize("override_first", [False, True])
    def test_constants_follow_alpha_override(self, canonical, override_first):
        # the model's constants are its own, whichever model is evaluated first
        es = np.linspace(-7.0, 7.0, 141)
        params = ModelParams(canonical.mass, canonical.gamma, canonical.half_period)
        shifted = dataclasses.replace(params, alpha_override=1.1 * params.alpha)
        first, second = (shifted, params) if override_first else (params, shifted)
        d_first, d_second = lyapunov_many(first, es), lyapunov_many(second, es)
        assert not np.array_equal(d_first, d_second)
        assert np.array_equal(d_first, reference_lyapunov_many(first, es))
        assert np.array_equal(d_second, reference_lyapunov_many(second, es))

    def test_even_function(self, canonical):
        rng = np.random.default_rng(21)
        lam, m = canonical.lam, canonical.mass
        special = [lam, lam * (1 + 1e-6), lam * (1 - 1e-6), m]
        es = np.concatenate([rng.uniform(0.05, 8.0, 50), special])
        assert np.array_equal(lyapunov_many(canonical, es), lyapunov_many(canonical, -es))

    @pytest.mark.parametrize("mass,gamma,a", REMOVABLE_POINT_SETS.values(),
                             ids=REMOVABLE_POINT_SETS.keys())
    def test_matches_oracle_at_removable_points(self, mass, gamma, a):
        # E = 0, |E| = m and |E| = lam are 0/0 points of the printed formula
        params = ModelParams(mass, gamma, a)
        lam = params.lam
        points = [0.0, mass, lam, lam * (1 + 1e-12), lam * (1 - 1e-12), lam + 1e-4, lam - 1e-6]
        es = np.array(points + [-e for e in points[1:]])
        closed = lyapunov_many(params, es)
        oracle = lyapunov_numeric_many(periodized_potential(params), mass, es, a, steps=80000)
        assert np.max(np.abs(closed - oracle) / np.maximum(1.0, np.abs(closed))) < 1e-9

    def test_reference_edges_sit_on_the_lines(self, canonical):
        # reference values are printed to three decimals; with slopes up to
        # ~7 near the first edge that rounding shows up as a few 1e-3 in D
        worst = max(abs(abs(lyapunov(canonical, e)) - 2.0) for e in REFERENCE_EDGES)
        assert worst < 5e-3

    def test_matches_oracle_away_from_mass_shell(self, canonical):
        rng = np.random.default_rng(22)
        es = np.array([e for e in rng.uniform(-8, 8, 15) if abs(abs(e) - 2.0) > 0.05])
        closed = lyapunov_many(canonical, es)
        pot = periodized_potential(canonical)
        for e, c in zip(es, closed):
            oracle = lyapunov_numeric_many(pot, canonical.mass, np.array([e]), 1.0, steps=4000)[0]
            assert abs(c - oracle) < 1e-6

    def test_mass_shell_value_matches_many(self, canonical):
        for e in (2.0, -2.0):
            assert lyapunov(canonical, e) == float(lyapunov_many(canonical, [e])[0])

    def test_zero_energy_matches_quadrature(self, canonical):
        # decoupled system at E=0: trace = 2 cosh of the integrated mass term
        xs = np.linspace(-1.0, 1.0, 200001)
        from diracband import potential_s1

        integral = np.trapezoid(2.0 + potential_s1(canonical, xs), xs)
        d0 = float(lyapunov_many(canonical, np.array([0.0]))[0])
        assert abs(d0 - 2.0 * math.cosh(integral)) < 1e-5

    def test_removable_point_at_bound_state_energy(self, canonical):
        around = lyapunov(canonical, 1.0 + 1e-6)
        assert abs(lyapunov(canonical, 1.0) - around) < 1e-4


# brute-force comparison cases: parameters, window and the number of
# positive edges a dense scan finds (a 0.01 grid found 43, 5 and 1)
DENSE_REFERENCE_CASES = {
    "canonical": (ModelParams.from_lambda(mass=2.0, lam=1.0, half_period=1.0), 40.0, 51),
    "g1.9-a3": (ModelParams(mass=2.0, gamma=1.9, half_period=3.0), 7.0, 25),
    "g0.3-a0.5": (ModelParams(mass=2.0, gamma=0.3, half_period=0.5), 7.0, 5),
}


def assert_sign_change_at_each_edge(params, edges):
    e = np.array(edges)
    d, below, above = (lyapunov_many(params, x) for x in (e, np.nextafter(e, 0), np.nextafter(e, np.inf)))
    line = np.where(d > 0, 2.0, -2.0)
    side = d > line
    assert np.all((side != (below > line)) | (side != (above > line))), params


@pytest.fixture(scope="module")
def table(canonical):
    return band_edges(canonical, e_max=7.0, tol=1e-6)


@pytest.fixture(scope="module")
def bound_state_band():
    """The narrow allowed band around |E| = lam of a long, deep cell."""
    params = ModelParams(mass=2.0, gamma=1.9, half_period=3.0)
    table = band_edges(params, e_max=7.0, tol=1e-6)
    return params, next(b for b in table.allowed_bands(positive_only=True) if b.e_lo < params.lam < b.e_hi)


@pytest.fixture(scope="module")
def lowest_band(canonical):
    return band_edges(canonical, e_max=3.0, tol=1e-6).allowed_bands(positive_only=True)[0]


class TestBandEdges:
    def test_reference_edges_reproduced(self, table):
        pos = table.positive_edges
        assert len(pos) >= len(REFERENCE_EDGES)
        for found, ref in zip(pos, REFERENCE_EDGES):
            assert abs(found - ref) < 2e-3

    def test_ninth_edge_is_real(self, canonical, table):
        # both evaluation paths agree there is a gap just above 6.352
        assert table.positive_edges[8] == pytest.approx(NINTH_EDGE, abs=2e-3)
        closed = float(lyapunov_many(canonical, np.array([NINTH_GAP_INTERIOR]))[0])
        oracle = lyapunov_numeric_many(
            periodized_potential(canonical), canonical.mass, np.array([NINTH_GAP_INTERIOR]), 1.0,
            steps=8000,
        )[0]
        assert closed - 2.0 > 1e-4
        assert oracle - 2.0 > 1e-4
        assert len(table.positive_edges) == 9

    def test_negative_edges_are_exact_mirrors(self, table):
        neg = sorted(-e for e in table.edges if e < 0)
        assert tuple(neg) == table.positive_edges

    def test_near_degenerate_pair_resolved(self, table):
        pos = table.positive_edges
        assert pos[3] == pytest.approx(3.274, abs=2e-3)
        assert pos[4] == pytest.approx(3.335, abs=2e-3)
        between = [b for b in table.bands if abs(b.e_lo - pos[3]) < 1e-9]
        assert between and between[0].kind == "forbidden"

    def test_edge_certificate(self, canonical, table):
        for e in table.edges:
            d = float(lyapunov_many(canonical, np.array([e]))[0])
            assert abs(abs(d) - 2.0) < 10 * table.tol

    def test_kinds_alternate(self, table):
        kinds = [b.kind for b in table.bands]
        assert all(a != b for a, b in zip(kinds[:-1], kinds[1:]))

    def test_table_covers_requested_range(self, table):
        assert table.bands[0].e_lo == -7.0
        assert table.bands[-1].e_hi == 7.0

    def test_floquet_regimes_inside_bands(self, canonical, table):
        for band in table.bands:
            mid = 0.5 * (band.e_lo + band.e_hi)
            if abs(abs(mid) - canonical.mass) < 1e-6:
                continue
            pair = floquet_multipliers(float(lyapunov_many(canonical, np.array([mid]))[0]))
            if band.kind == "allowed":
                assert abs(abs(pair.beta1) - 1.0) < 1e-12
                assert abs(abs(pair.beta2) - 1.0) < 1e-12
            else:
                assert abs(pair.beta1.imag) < 1e-12
                assert max(abs(pair.beta1), abs(pair.beta2)) > 1.0

    @pytest.mark.parametrize("params,e_max,count", DENSE_REFERENCE_CASES.values(),
                             ids=DENSE_REFERENCE_CASES.keys())
    def test_matches_dense_reference(self, params, e_max, count):
        # edge for edge: every brute-force bracket holds exactly one edge of
        # its own line, and there are no others
        table = band_edges(params, e_max=e_max, tol=1e-6)
        pos = np.array(table.positive_edges)
        ref = crossing_brackets(params, e_max, 1e-5)
        assert len(ref) == len(pos) == count
        d = lyapunov_many(params, pos)
        for lo, hi, line in ref:
            inside = (pos >= lo) & (pos <= hi) & (np.sign(d) == np.sign(line))
            assert inside.sum() == 1, (lo, hi, line)

    def test_bound_state_band_found(self, bound_state_band):
        _, band = bound_state_band
        assert band.e_lo == pytest.approx(0.624241, abs=1e-6)
        assert band.e_hi == pytest.approx(0.624759, abs=1e-6)

    def test_edges_are_float_accurate(self, canonical):
        # D - 2 or D + 2 changes sign between each edge and an adjacent float
        table = band_edges(canonical, e_max=40.0, tol=1e-6)
        assert_sign_change_at_each_edge(canonical, table.positive_edges)

    def test_parameter_space(self):
        # m, gamma/m and a over the whole valid space, window to m + 5
        rng = np.random.default_rng(20261018)
        for _ in range(50):
            m = rng.uniform(0.5, 5.0)
            params = ModelParams(m, m * rng.uniform(0.05, 0.95), rng.uniform(0.3, 3.0))
            table = band_edges(params, e_max=m + 5.0, tol=1e-6)
            pos = np.array(table.positive_edges)
            for lo, hi, _ in crossing_brackets(params, m + 5.0, 1e-5):
                assert np.any((pos >= lo) & (pos <= hi)), (params, lo, hi)
            kinds = [b.kind for b in table.bands]
            assert all(k1 != k2 for k1, k2 in zip(kinds[:-1], kinds[1:])), params
            assert tuple(sorted(-e for e in table.edges if e < 0)) == table.positive_edges
            assert_sign_change_at_each_edge(params, table.positive_edges)

    def test_invalid_arguments(self, canonical):
        with pytest.raises(ValueError):
            band_edges(canonical, e_max=-1.0)
        with pytest.raises(ValueError):
            band_edges(canonical, e_max=7.0, tol=0.0)
        with pytest.raises(ValueError, match="edge-scan points"):
            band_edges(canonical, e_max=1e308)


class TestDispersion:
    def test_endpoints_exact(self, canonical, lowest_band):
        _, ks = dispersion(canonical, lowest_band, 51)
        assert abs(ks[0] - 0.0) < 1e-9
        assert abs(ks[-1] - math.pi / 2.0) < 1e-9

    def test_monotone_over_first_band(self, canonical, lowest_band):
        _, ks = dispersion(canonical, lowest_band, 101)
        assert all(k2 > k1 for k1, k2 in zip(ks[:-1], ks[1:]))

    def test_defining_relation_round_trip(self, canonical, lowest_band):
        points = list(zip(*dispersion(canonical, lowest_band, 41)))
        a = canonical.half_period
        for e, k in points[1:-1]:
            assert abs(math.cos(2 * k * a) - lyapunov(canonical, e) / 2.0) < 1e-12
        # endpoints carry the snapped defining values
        for e, k in (points[0], points[-1]):
            assert abs(math.cos(2 * k * a) - lyapunov(canonical, e) / 2.0) < 1e-11

    def test_forbidden_interval_rejected(self, canonical):
        with pytest.raises(NotAllowedBand):
            dispersion(canonical, Band(1.5, 2.1, "allowed"), 21)

    def test_forbidden_band_object_rejected(self, canonical):
        with pytest.raises(NotAllowedBand):
            dispersion(canonical, Band(1.381, 2.164, "forbidden"), 11)

    def test_bound_state_band_endpoints_exact(self, bound_state_band):
        # the edges are used as given; |D| = 2 there to a float
        params, band = bound_state_band
        es, ks = dispersion(params, band, 21)
        assert (es[0], es[-1]) == (band.e_lo, band.e_hi)
        assert ks[0] == 0.0
        assert ks[-1] == math.pi / (2.0 * params.half_period)

    def test_sample_count_validated(self, canonical, lowest_band):
        with pytest.raises(ValueError):
            dispersion(canonical, lowest_band, 1)


class TestTrace:
    def test_ordering_and_regimes(self, canonical):
        es = energy_grid(-3.0, 3.0, 121).tolist()
        assert es == sorted(es)
        for e, regime in zip(es, bands.regimes(canonical, es)):
            if abs(abs(e) - 2.0) < 1e-9:
                assert regime == "limit"
            elif abs(e) > 2.0:
                assert regime == "propagating"
            else:
                assert regime == "evanescent"

    def test_symmetric_range_is_even(self, canonical):
        ds = lyapunov_trace(canonical, energy_grid(-5.0, 5.0, 201))
        assert all(abs(d1 - d2) < 1e-10 for d1, d2 in zip(ds, reversed(ds)))

    def test_crossing_structure_below_seven(self, canonical):
        es = energy_grid(0.0, 7.0, 701)
        ds = lyapunov_trace(canonical, es)
        # one crossing bracketing each reference edge
        for ref in REFERENCE_EDGES:
            window = (es > ref - 0.011) & (es < ref + 0.011)
            assert count_crossings(ds[window]) >= 1
        # the true total includes the ninth edge; the count is odd by parity
        assert count_crossings(ds) == 9


class TestFreeLimit:
    def test_gaps_close_as_gamma_vanishes(self):
        params = ModelParams(mass=2.0, gamma=1e-4, half_period=1.0)
        table = band_edges(params, e_max=7.0, tol=1e-6)
        gaps = [
            b for b in table.bands
            if b.kind == "forbidden" and b.e_lo > params.mass
        ]
        widest = max((b.e_hi - b.e_lo for b in gaps), default=0.0)
        assert widest < 1e-3
        # the continuum above the mass gap is essentially one allowed band
        allowed_above = [
            b for b in table.bands if b.kind == "allowed" and b.e_hi > params.mass
        ]
        assert sum(b.e_hi - max(b.e_lo, params.mass) for b in allowed_above) > 4.9


class TestReferenceBits:
    """lyapunov_many and the edge zoom give the bits of their reference
    forms in conftest, which pay more per call for the same arithmetic."""

    def test_discriminant_matches_reference(self, canonical):
        rng = np.random.default_rng(20261018)
        for params in [canonical] + seeded_sets(1, 30):
            m, lam = params.mass, params.lam
            special = np.array([0.0, m, -m] + [s * lam * (1.0 + d) for s in (1.0, -1.0)
                                               for d in (0.0, 1e-6, -1e-6)])
            es = np.concatenate([special, lam + rng.normal(0.0, 1e-3, 200),
                                 rng.uniform(-12.0, 12.0, 2000 - special.size - 200)])
            # all at once, then each special energy alone: every branch taken by a whole call
            for x in [es, *([e] for e in special)]:
                assert np.array_equal(lyapunov_many(params, x), reference_lyapunov_many(params, x)), params

    def test_band_tables_match_reference(self, canonical, monkeypatch):
        sets = [canonical] + seeded_sets(2, 20)
        tables = [band_edges(p, e_max=p.mass + 5.0, tol=1e-6) for p in sets]
        monkeypatch.setattr(bands, "lyapunov_many", reference_lyapunov_many)
        monkeypatch.setattr(bands, "_refine", reference_refine)
        for p, table in zip(sets, tables):
            assert band_edges(p, e_max=p.mass + 5.0, tol=1e-6) == table, p


def zoom_batch(params: ModelParams):
    """Brackets of sign changes of D - line as band_edges zooms them: each
    crossing of its scan step up to m + 5, then each edge of the table
    with its adjacent float across the line; (lo, hi, dlo, dhi, line)."""
    e_max = params.mass + 5.0
    step = math.pi / (bands.SCAN_DENSITY * params.half_period)
    lo, hi, line = map(list, zip(*crossing_brackets(params, e_max, step)))
    for e in band_edges(params, e_max=e_max).positive_edges:
        target = math.copysign(2.0, lyapunov(params, e))
        after = math.nextafter(e, math.inf)
        across = (lyapunov(params, e) > target) != (lyapunov(params, after) > target)
        lo.append(e if across else math.nextafter(e, -math.inf))
        hi.append(after if across else e)
        line.append(target)
    lo, hi, line = np.array(lo), np.array(hi), np.array(line)
    return lo, hi, lyapunov_many(params, lo), lyapunov_many(params, hi), line


class TestZoomCrossings:
    """A bracket's root does not depend on the batch it is zoomed in, nor
    on the round it leaves it.  Sweep seed 1 set 190 has its bound-state
    edges where D is quantized: D steps by about 1e-6 between adjacent
    floats there."""

    @pytest.fixture(scope="class")
    def batches(self):
        sets = sweep_sets(1)
        return [(p, zoom_batch(p)) for p in (ModelParams(s.mass, s.gamma, s.half_period)
                                             for s in sets[1:31] + [sets[190]])]

    def test_adjacent_floats_come_back_unchanged(self, batches):
        for params, (lo, hi, dlo, dhi, line) in batches:
            done = np.nextafter(lo, np.inf) == hi
            assert done.any() and not done.all(), params
            roots = bands._zoom_crossings(params, lo.copy(), hi.copy(), dlo.copy(), dhi.copy(), line)
            nearer = np.where(np.abs(dlo - line) <= np.abs(dhi - line), lo, hi)
            assert np.array_equal(roots[done], nearer[done]), params

    def test_batch_gives_each_bracket_its_own_bits(self, batches):
        for params, brackets in batches:
            roots = bands._zoom_crossings(params, *(b.copy() for b in brackets))
            alone = [bands._zoom_crossings(params, *(b[[i]].copy() for b in brackets))[0]
                     for i in range(roots.size)]
            assert np.array_equal(roots, alone), params
            # and in reverse order
            flipped = bands._zoom_crossings(params, *(b[::-1].copy() for b in brackets))
            assert np.array_equal(flipped[::-1], roots), params


class TestEnergyGrid:
    def test_symmetric_odd_grid_has_exact_zero(self):
        rng = np.random.default_rng(20261018)
        for e_max in [6.3, *rng.uniform(1.0, 10.0, 100)]:
            es = energy_grid(-e_max, e_max, 701)
            assert es[350] == 0.0 and not np.signbit(es[350]), e_max
            assert np.array_equal(es[:350], -es[:350:-1]), e_max
        # an even count has no middle sample, and other windows are linspace's
        assert np.count_nonzero(energy_grid(-3.0, 3.0, 700)) == 700
        assert np.array_equal(energy_grid(-2.0, 3.0, 11), np.linspace(-2.0, 3.0, 11))
