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

with w1,2 = w1,2(a).  D depends on E only through q, so it is even in E
by construction, and it is regular at E = 0 and |E| = m.

The pole at q = -g^2 (|E| = lam) is removable.  Splitting off the part
of the numerator that is polynomial in q gives

    D = 2C - 2(w1+w2) S + (alpha C + beta S)/(q + g^2)
    alpha = 2m(w1-w2) - w1^2 - w2^2 - 2g^2,  beta = m(w2^2-w1^2) + 2(w1+w2) g^2

and alpha C + beta S vanishes identically at q = -g^2.  The quotient
loses about log10(g^2/|q+g^2|) digits to that cancellation, so within
|q + g^2| < g^2/10 the last term is evaluated as alpha dC + beta dS, the
divided differences of C and S at q = -g^2, written without
cancellation through sinh(a(kap -+ g)) and cosh(a(kap + g)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnergy, GridTooCoarse, NotAllowedBand
from .soliton import DEGENERATE_EPS, ModelParams, w_functions


@dataclass(frozen=True)
class TraceSample:
    e: float
    d: float
    regime: str  # propagating | evanescent | limit


@dataclass(frozen=True)
class LyapunovTrace:
    params: ModelParams
    samples: tuple[TraceSample, ...]


@dataclass(frozen=True)
class Band:
    e_lo: float
    e_hi: float
    kind: str  # allowed | forbidden


@dataclass(frozen=True)
class BandTable:
    params: ModelParams
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
    m, g, a = params.mass, params.gamma, params.half_period
    w1, w2 = w_functions(params, a)
    e = np.asarray(energies, dtype=float)
    q = e * e - m * m
    root = np.sqrt(np.abs(q))
    phase = 2.0 * a * root
    propagating = q >= 0
    c = np.empty_like(q)
    np.cos(phase, out=c, where=propagating)
    np.cosh(phase, out=c, where=~propagating)
    s = np.empty_like(q)
    np.sin(phase, out=s, where=propagating)
    np.sinh(phase, out=s, where=~propagating)
    s = np.divide(s, root, out=np.full_like(q, 2.0 * a), where=root != 0)

    alpha = 2.0 * m * (w1 - w2) - w1 * w1 - w2 * w2 - 2.0 * g * g
    beta = m * (w2 * w2 - w1 * w1) + 2.0 * (w1 + w2) * g * g
    shifted = q + g * g
    near = np.abs(shifted) < 0.1 * g * g
    tail = np.divide(alpha * c + beta * s, shifted, out=np.empty_like(q), where=~near)
    if near.any():
        kap = np.sqrt(-q[near])
        u, v = kap - g, kap + g
        ratio_u = np.divide(np.sinh(a * u), u, out=np.full_like(u, a), where=u != 0)
        dc = -2.0 * np.sinh(a * v) / v * ratio_u
        ds = (np.sinh(2.0 * a * g) - 2.0 * g * np.cosh(a * v) * ratio_u) / (kap * g * v)
        tail[near] = alpha * dc + beta * ds
    return 2.0 * c - 2.0 * (w1 + w2) * s + tail


def lyapunov(params: ModelParams, energy: float) -> float:
    """Discriminant at one energy.

    Raises DegenerateEnergy within DEGENERATE_EPS of |E| = m, where the
    paper's expression is 0/0; lyapunov_many and the trace builder return
    the value of the real form there.
    """
    if abs(energy * energy - params.mass**2) < DEGENERATE_EPS:
        raise DegenerateEnergy(f"E={energy} within {DEGENERATE_EPS} of |E|=m={params.mass}")
    return float(lyapunov_many(params, np.array([energy]))[0])


def lyapunov_trace(params: ModelParams, e_min: float, e_max: float, samples: int) -> LyapunovTrace:
    """Evenly sampled (E, D, regime) trace; rows within DEGENERATE_EPS of
    |E| = m carry the regime "limit", the boundary between the other two."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not e_min < e_max:
        raise ValueError(f"need e_min < e_max, got [{e_min}, {e_max}]")
    es = np.linspace(e_min, e_max, samples)
    ds = lyapunov_many(params, es)
    m = params.mass
    rows = []
    for e, d in zip(es, ds):
        if abs(e * e - m * m) < DEGENERATE_EPS:
            regime = "limit"
        elif abs(e) > m:
            regime = "propagating"
        else:
            regime = "evanescent"
        rows.append(TraceSample(float(e), float(d), regime))
    return LyapunovTrace(params, tuple(rows))


def _bisect_batch(params: ModelParams, lo, hi, flo, target, tol: float):
    """Bracket-preserving bisection of D - target on many brackets at once."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.array(flo, dtype=float)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = lyapunov_many(params, mid) - target
        same = flo * fm > 0
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
        if np.max(hi - lo) < tol and np.max(np.abs(fm)) < 4 * tol:
            break
    mid = 0.5 * (lo + hi)
    return mid


def band_edges(
    params: ModelParams,
    e_max: float,
    tol: float = 1e-6,
    *,
    grid_step: float = 0.01,
    refine_factor: int = 10,
) -> BandTable:
    """Locate every |D| = 2 energy in [-e_max, e_max].

    Sign changes of D -+ 2 are bracketed on a grid of ``grid_step``,
    refined by ``refine_factor`` where |D| is near 2 or changing fast,
    then polished by bisection to ``tol``.  The scan runs on the positive
    axis and is mirrored, so the table is exactly E -> -E symmetric.
    Raises GridTooCoarse when the classification pass detects structure
    the grid missed.
    """
    if e_max <= 0:
        raise ValueError("e_max must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    base = np.arange(0.0, e_max, grid_step)
    base = np.append(base, e_max)
    d_base = lyapunov_many(params, base)

    # refine cells that approach |D| = 2 or jump steeply
    near = np.minimum(np.abs(d_base - 2.0), np.abs(d_base + 2.0)) < 0.5
    cell_near = near[:-1] | near[1:]
    cell_steep = np.abs(np.diff(d_base)) > 1.0
    marked = cell_near | cell_steep
    pieces = [base]
    for i in np.nonzero(marked)[0]:
        pieces.append(np.linspace(base[i], base[i + 1], refine_factor + 1)[1:-1])
    grid = np.unique(np.concatenate(pieces))
    d = lyapunov_many(params, grid)

    roots = []
    for target in (2.0, -2.0):
        f = d - target
        sgn = np.sign(f)
        hit = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        if hit.size:
            roots.extend(
                _bisect_batch(params, grid[hit], grid[hit + 1], f[hit], target, tol).tolist()
            )
        exact = np.nonzero(f == 0.0)[0]
        roots.extend(grid[exact].tolist())

    pos = sorted(r for r in roots if 0.0 < r <= e_max)
    edges = tuple(-r for r in reversed(pos)) + tuple(pos)

    bounds = (-e_max,) + edges + (e_max,)
    bands = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo <= 2 * tol:
            continue
        kind = _classify_interval(params, lo, hi, tol)
        bands.append(Band(lo, hi, kind))

    for b1, b2 in zip(bands[:-1], bands[1:]):
        if b1.kind == b2.kind:
            raise GridTooCoarse(
                f"intervals ({b1.e_lo}, {b1.e_hi}) and ({b2.e_lo}, {b2.e_hi}) share kind "
                f"'{b1.kind}'; decrease grid_step"
            )
    return BandTable(params, edges, tuple(bands), e_max, tol)


def _classify_interval(params: ModelParams, lo: float, hi: float, tol: float) -> str:
    margin = min(10 * tol, 0.25 * (hi - lo))
    probes = np.linspace(lo + margin, hi - margin, 33)
    dd = np.abs(lyapunov_many(params, probes))
    mid_allowed = dd[len(dd) // 2] < 2.0
    crosses = (dd > 2.0 + 1e-9) if mid_allowed else (dd < 2.0 - 1e-9)
    if crosses.any():
        raise GridTooCoarse(
            f"interval ({lo:.6g}, {hi:.6g}) contains unresolved |D|=2 structure; "
            "decrease grid_step"
        )
    return "allowed" if mid_allowed else "forbidden"


def _polish_edge(params: ModelParams, e: float, tol_hint: float = 1e-3) -> float:
    """Drive an approximate edge to near machine precision.

    Dispersion endpoints need |D/2| within the clamp window of 1, far
    tighter than the table tolerance; a short extra bisection is cheap.
    """
    d_here = float(lyapunov_many(params, np.array([e]))[0])
    target = 2.0 if abs(d_here - 2.0) < abs(d_here + 2.0) else -2.0
    width = tol_hint * max(1.0, abs(e))
    for _ in range(6):
        lo, hi = e - width, e + width
        flo = float(lyapunov_many(params, np.array([lo]))[0]) - target
        fhi = float(lyapunov_many(params, np.array([hi]))[0]) - target
        if flo * fhi < 0:
            break
        width *= 4.0
    else:
        return e
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        fm = float(lyapunov_many(params, np.array([mid]))[0]) - target
        if flo * fm > 0:
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 4 * math.ulp(max(abs(lo), abs(hi))):
            break
    return 0.5 * (lo + hi)


def dispersion(params: ModelParams, band, n: int) -> list[tuple[float, float]]:
    """Sample the dispersion law K(E) = arccos(D/2) / (2a) across a band.

    ``band`` is (e_lo, e_hi) or a Band of kind "allowed".  Endpoints are
    re-polished internally so that |D/2| lands inside the 1e-9 clamp
    window there and the returned K endpoints are exactly 0 or pi/(2a).
    Raises NotAllowedBand if any sample has |D| > 2 + 1e-9.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if isinstance(band, Band):
        if band.kind != "allowed":
            raise NotAllowedBand(f"band ({band.e_lo}, {band.e_hi}) is {band.kind}")
        e_lo, e_hi = band.e_lo, band.e_hi
    else:
        e_lo, e_hi = band
    if not e_lo < e_hi:
        raise ValueError(f"need e_lo < e_hi, got ({e_lo}, {e_hi})")

    e_lo = _polish_edge(params, e_lo)
    e_hi = _polish_edge(params, e_hi)
    es = np.linspace(e_lo, e_hi, n)
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
    ks = np.arccos(half) / (2.0 * a)
    return [(float(e), float(k)) for e, k in zip(es, ks)]
