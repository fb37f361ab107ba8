"""Discriminant, band edges and dispersion for the periodized soliton
potential.

The paper prints the discriminant as

    D(E) = E/(k^2+g^2) * [ 2 w1(a) cos(2ka+d) - 2 w2(a) cos(2ka-d)
           + (k^2-w1(a)^2)/k * sin(2ka+d) - (k^2-w2(a)^2)/k * sin(2ka-d) ]

with k = sqrt(E^2-m^2) and the phase d fixed by cos d = m/E, sin d = k/E.
Expanding the shifted cosines and sines with those two relations cancels
the factor E and leaves a real function of q = E^2 - m^2 = k^2 alone:

    D = [ (2q - w1^2 - w2^2 + 2m(w1-w2)) C + (m(w2^2-w1^2) - 2(w1+w2) q) S ] / (q + g^2)

    C = cos(2a sqrt q),  S = sin(2a sqrt q)/sqrt q        for q > 0
    C = cosh(2a kap),    S = sinh(2a kap)/kap, kap^2 = -q  for q < 0
    C = 1,               S = 2a                            at q = 0

with w1,2 = w1,2(a); C and S are soliton.free_pair at x = 2a.  D depends
on E only through q, so it is even in E by construction, and it is
regular at E = 0 and |E| = m.

The pole at q = -g^2 (|E| = lam) is removable.  Splitting off the part
of the numerator that is polynomial in q gives

    D = 2C - 2(w1+w2) S + (alpha C + beta S)/(q + g^2)
    alpha = 2m(w1-w2) - w1^2 - w2^2 - 2g^2,  beta = m(w2^2-w1^2) + 2(w1+w2) g^2

and alpha C + beta S vanishes identically at q = -g^2.  The quotient
loses about log10(g^2/|q+g^2|) digits to that cancellation, so within
|q + g^2| < g^2/10 the last term is evaluated as alpha dC + beta dS, the
divided differences of C and S at q = -g^2 that soliton.pole_differences
writes without cancellation; basis_spinors splits U's pole with them too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiracBandError, NotAllowedBand, ScanWindowTooWide
from .soliton import ModelParams, free_pair, pole_differences, pole_window

#: the trace labels |E^2 - m^2| below this times m^2 as the regime "limit"
DEGENERATE_EPS = 1e-9


@dataclass(frozen=True)
class Band:
    e_lo: float
    e_hi: float
    kind: str  # allowed | forbidden


@dataclass(frozen=True)
class BandTable:
    edges: tuple[float, ...]
    bands: tuple[Band, ...]
    e_max: float
    tol: float

    @property
    def positive_edges(self) -> tuple[float, ...]:
        return tuple(e for e in self.edges if e > 0)

    def allowed_bands(self, positive_only: bool = False) -> tuple[Band, ...]:
        out = [b for b in self.bands if b.kind == "allowed"]
        if positive_only:
            out = [b for b in out if b.e_lo >= 0]
        return tuple(out)


def lyapunov_many(params: ModelParams, energies) -> np.ndarray:
    """Vectorized discriminant D(E), real and even in E; defined at every
    real energy (see the module docstring for the formula)."""
    m, g = params.mass, params.gamma
    alpha, beta, two_a, two_w = params.discriminant
    e = np.asarray(energies, dtype=float)
    q = e * e - m * m
    c, s = free_pair(q, two_a)

    shifted, near = pole_window(q, g)
    tail = alpha * c + beta * s
    if np.count_nonzero(near):
        np.divide(tail, shifted, out=tail, where=~near)
        dc, ds = pole_differences(g, q[near], two_a)
        tail[near] = alpha * dc + beta * ds
    else:
        tail /= shifted
    return 2.0 * c - two_w * s + tail


def lyapunov(params: ModelParams, energy: float) -> float:
    """Discriminant at one energy: lyapunov_many at [energy]."""
    return float(lyapunov_many(params, np.array([energy]))[0])


def regimes(params: ModelParams, energies) -> list[str]:
    """"limit" where |E^2 - m^2| < DEGENERATE_EPS m^2, the boundary between
    "evanescent" (|E| < m) and "propagating" (|E| > m), for every energy."""
    e = np.asarray(energies, dtype=float)
    m = params.mass
    labels = np.where(np.abs(e) > m, "propagating", "evanescent")
    labels[np.abs(e * e - m * m) < DEGENERATE_EPS * m * m] = "limit"
    return labels.tolist()


def energy_grid(e_min: float, e_max: float, samples: int) -> np.ndarray:
    """``np.linspace(e_min, e_max, samples)``, except that on a window
    symmetric about 0 the first half is the exact negation of the last,
    reversed: linspace's halves differ by an ulp or two of e_max.  The
    middle sample of an odd count is exactly 0, where linspace may leave
    such an ulp."""
    es = np.linspace(e_min, e_max, samples)
    if e_min == -e_max:
        half = samples // 2
        es[:half] = -es[::-1][:half]
        es[half:samples - half] = 0.0
    return es


def lyapunov_trace(params: ModelParams, energies) -> np.ndarray:
    """D at every energy, as lyapunov_many, or DiracBandError at the first
    energy where D is not finite: below the mass cosh(2a kap) overflows
    once 2a kap passes about 709, above it E^2 once |E| passes about
    1.34e154."""
    es = np.asarray(energies, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ds = lyapunov_many(params, es)
    bad = np.flatnonzero(~np.isfinite(ds))
    if bad.size:
        e = float(es[bad[0]])
        cause = (f"cosh(2a kappa) overflows at half-period {params.half_period}"
                 if abs(e) < params.mass else "E^2 overflows")
        raise DiracBandError(f"D is not finite at E={e}: {cause}")
    return ds


#: scan points per period of cos(2ak): above the mass dE <= dk, so a step
#: of pi/(16a) in E puts at least this many samples on every period
SCAN_DENSITY = 16
#: cells per bracket and zoom step
ZOOM_WAYS = 16
#: most energies one edge scan may sample; band_edges rejects a wider window
MAX_SCAN_POINTS = 2**20


#: the interior zoom points as fractions of their bracket
_FRACTIONS = np.arange(1, ZOOM_WAYS) / ZOOM_WAYS


def _refine(params: ModelParams, lo, hi, dlo, dhi):
    """Split every bracket into ZOOM_WAYS cells: the (brackets, ZOOM_WAYS+1)
    energies and D values, with the interior evaluated in one call."""
    inner = (hi - lo)[:, None] * _FRACTIONS
    inner += lo[:, None]
    xs, ds = np.empty((2, lo.size, ZOOM_WAYS + 1))
    xs[:, 0], xs[:, 1:-1], xs[:, -1] = lo, inner, hi
    ds[:, 0], ds[:, -1] = dlo, dhi
    ds[:, 1:-1] = lyapunov_many(params, inner.ravel()).reshape(inner.shape)
    return xs, ds


def _zoom_extrema(params: ModelParams, lo, hi, dlo, dhi, sign, tol: float):
    """Zoom every bracket onto its maximum of sign * D until that exceeds 2
    (a gap narrower than the scan step) or the bracket is narrower than
    tol; returns the best energy of each bracket and D there."""
    best, d_best = np.empty_like(lo), np.empty_like(lo)
    a = np.arange(lo.size)  # the live brackets
    while a.size:
        xs, ds = _refine(params, lo[a], hi[a], dlo[a], dhi[a])
        j = np.argmax(sign[a, None] * ds, axis=1)
        row = np.arange(a.size) * (ZOOM_WAYS + 1)
        left, right = row + np.maximum(j - 1, 0), row + np.minimum(j + 1, ZOOM_WAYS)
        j += row
        xs, ds = xs.ravel(), ds.ravel()
        width = hi[a] - lo[a]
        best[a], d_best[a] = xs[j], ds[j]
        lo[a], dlo[a], hi[a], dhi[a] = xs[left], ds[left], xs[right], ds[right]
        narrowed = xs[right] - xs[left]
        a = a[(sign[a] * ds[j] <= 2.0) & (narrowed > tol) & (narrowed < width)]
    return best, d_best


def _zoom_crossings(params: ModelParams, lo, hi, dlo, dhi, line):
    """Zoom every bracket of a sign change of D - line down to two
    adjacent floats; returns the float of each pair nearer the line.
    A bracket leaves the batch in the round it is done: the rounds it
    needs grow with log(step / ulp(E)), by several over a wide window."""
    roots = np.empty_like(lo)
    at = np.arange(lo.size)  # where each zoomed bracket's root goes
    while True:
        live = np.nextafter(lo, np.inf) < hi
        if not live.all():
            nearer = np.where(np.abs(dlo - line) <= np.abs(dhi - line), lo, hi)
            roots[at[~live]] = nearer[~live]
            at, lo, hi, dlo, dhi, line = (v[live] for v in (at, lo, hi, dlo, dhi, line))
        if not at.size:
            return roots
        xs, ds = _refine(params, lo, hi, dlo, dhi)
        above = ds > line[:, None]
        # the last column is on the far side
        j = np.arange(lo.size) * (ZOOM_WAYS + 1) + np.argmax(above != above[:, :1], axis=1)
        xs, ds = xs.ravel(), ds.ravel()
        lo, dlo, hi, dhi = xs[j - 1], ds[j - 1], xs[j], ds[j]


def band_edges(params: ModelParams, e_max: float, tol: float = 1e-6) -> BandTable:
    """Locate every |D| = 2 energy in [-e_max, e_max].

    D is monotone on every band and has exactly one critical point in
    every gap, open or closed.  D is sampled from E = 0 to two cells past
    e_max at a step of pi/(16a), at least 16 points per period of
    cos(2ak), and every discrete extremum marks a gap.  An extremum with
    |D| < 2 may hide a gap narrower than the step: it is zoomed onto until
    |D| exceeds 2 or its bracket is narrower than ``tol``, so a gap
    narrower than ``tol`` may read as closed.  Every sign change of D - 2
    and of D + 2 along the samples is then zoomed down to two adjacent
    floats, and the edge is the one nearer the line; edges are exact to a
    float whatever ``tol``.  The interval about E = 0 is a gap when
    D(0) > 2, and every edge flips the kind.  All brackets of a zoom step
    are sampled at ZOOM_WAYS - 1 points in one lyapunov_many call.  The
    scan runs on the positive axis and is mirrored, so the table is
    exactly E -> -E symmetric.

    Raises ValueError unless e_max > 0 and 0 < tol < inf,
    ScanWindowTooWide (a ValueError) before the scan when it would sample
    more than MAX_SCAN_POINTS energies, and DiracBandError where D is not
    finite on the scan.
    """
    if not e_max > 0:
        raise ValueError(f"e_max must be positive, got {e_max}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    step = math.pi / (SCAN_DENSITY * params.half_period)
    if e_max / step + 3.0 > MAX_SCAN_POINTS:  # in floats: e_max may be 1e308
        raise ScanWindowTooWide(f"|E| up to {e_max} needs more than {MAX_SCAN_POINTS} edge-scan "
                                f"points at half-period {params.half_period}")
    xs = step * np.arange(int(e_max / step) + 3)
    ds = lyapunov_trace(params, xs)

    # E = 0 is a critical point with D(0) = 2 cosh(...) >= 2, since D is even;
    # every other one lies within a cell of a discrete extremum
    i = 1 + np.nonzero((ds[1:-1] - ds[:-2]) * (ds[2:] - ds[1:-1]) <= 0)[0]
    i = i[np.abs(ds[i]) < 2.0]
    if i.size:
        sign = np.where(ds[i] > ds[i - 1], 1.0, -1.0)
        px, pd = _zoom_extrema(params, xs[i - 1], xs[i + 1], ds[i - 1], ds[i + 1], sign, tol)
        order = np.argsort(np.concatenate([xs, px]), kind="stable")
        xs, ds = np.concatenate([xs, px])[order], np.concatenate([ds, pd])[order]

    lines = np.array([2.0, -2.0])
    above = ds > lines[:, None]
    which, k = np.nonzero(above[:, :-1] != above[:, 1:])
    roots = _zoom_crossings(params, xs[k], xs[k + 1], ds[k], ds[k + 1], lines[which])

    pos = tuple(r for r in np.sort(roots).tolist() if 0.0 < r <= e_max)
    edges = tuple(-r for r in reversed(pos)) + pos
    bounds = (-float(e_max),) + edges + (float(e_max),)
    # interval len(pos) holds E = 0 (ds[0] is still D(0)); every edge flips the kind
    kinds = ("forbidden", "allowed") if ds[0] > 2.0 else ("allowed", "forbidden")
    bands = tuple(Band(l, h, kinds[(j - len(pos)) % 2])
                  for j, (l, h) in enumerate(zip(bounds, bounds[1:])) if h > l)
    return BandTable(edges, bands, e_max, tol)


def dispersion(params: ModelParams, band: Band, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the dispersion law K(E) = arccos(D/2) / (2a) across an
    allowed band: n energies and K at each.

    The endpoints are used as given: band_edges puts them within a float
    of |D| = 2, where |D/2| lies inside the 1e-9 snap window, so the
    returned K endpoints are exactly 0 or pi/(2a).
    Raises NotAllowedBand if the band is not of kind "allowed" or any
    sample has |D| > 2 + 1e-9.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if band.kind != "allowed":
        raise NotAllowedBand(f"band ({band.e_lo}, {band.e_hi}) is {band.kind}")
    if not band.e_lo < band.e_hi:
        raise ValueError(f"need e_lo < e_hi, got ({band.e_lo}, {band.e_hi})")

    es = np.linspace(band.e_lo, band.e_hi, n)
    half = lyapunov_many(params, es) / 2.0

    overshoot = np.abs(half) - 1.0
    if float(overshoot.max()) > 1e-9:
        worst = float(es[int(np.argmax(overshoot))])
        raise NotAllowedBand(
            f"|D| exceeds 2 by {overshoot.max():.2e} at E={worst}; not an allowed band"
        )
    # snap-to-edge: within the 1e-9 window |D/2| is 1 by definition of an
    # edge; arccos is sqrt-singular there, so clipping alone is not enough
    half = np.where(np.abs(np.abs(half) - 1.0) <= 1e-9, np.sign(half), half)
    a = params.half_period
    return es, np.arccos(half) / (2.0 * a)
