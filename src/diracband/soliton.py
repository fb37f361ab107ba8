"""Closed forms for the one-soliton scalar potential and its solutions.

The model is fixed by a mass m, a steepness gamma in (0, m) and a
half-period a.  Everything else is derived:

    lam   = sqrt(m^2 - gamma^2)        bound-state energies +-lam
    alpha = (1/4) ln((m-gamma)/(m+gamma))
    s1(x) = -2 gamma^2 / (m + lam cosh(2 gamma x))

The solutions at any energy are elementary and real.  The soliton
problem is the Darboux transform of the free one (darboux): the
intertwiner L = d/dx - diag(w1, w2) maps a free solution, psi' =
A0 psi with A0 = [[m, -E], [E, -m]], to B(x) psi with

    B(x) = [[m - w1(x), -E], [E, -m - w2(x)]].

A0^2 = -q I with q = E^2 - m^2, so the free fundamental matrix is
exp(A0 x) = C I + S A0 (free_pair), and

    U(x; E) = Phi(x) Phi(0)^-1 = B(x) (C I + S A0) adj B(0) / (q + gamma^2)

since det B(x) = q + gamma^2 at every x (tanh 2 alpha = -gamma/m).  So
U(0) = I and det U = 1, and U is regular at every real energy: with
e^{4 alpha} = (m - gamma)/(m + gamma) the product divides exactly by
q + gamma^2, so within |q + gamma^2| < gamma^2/10 U is evaluated without
cancellation as K + B(x) (dC I + dS A0) adj B(0), with dC and dS the
divided differences of C and S at q = -gamma^2 (pole_differences) and

    K = cosh(gamma x) I + sinh(gamma x)/gamma (B(x) - diag(w1(0), w2(0))).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _check_positive_finite(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameter set: mass, soliton steepness, half-period.

    ``alpha_override`` replaces the derived asymmetry parameter.  Nothing in
    the package sets it: the tests do, to build mirrored or even variants and
    to confirm that ``verify``'s checks notice a corrupted alpha.  It should
    stay None in normal use.
    """

    mass: float
    gamma: float
    half_period: float
    alpha_override: float | None = None
    #: the discriminant's alpha, beta, 2a and 2(w1(a) + w2(a)) (bands), as Python floats
    discriminant: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_positive_finite("mass", self.mass)
        if not 0 < self.gamma < self.mass:
            raise ValueError(
                f"gamma must lie in (0, mass), got gamma={self.gamma}, mass={self.mass}"
            )
        _check_positive_finite("half_period", self.half_period)
        m, g, a = self.mass, self.gamma, self.half_period
        w1, w2 = (float(w) for w in w_functions(self, a))
        alpha = 2.0 * m * (w1 - w2) - w1 * w1 - w2 * w2 - 2.0 * g * g
        beta = m * (w2 * w2 - w1 * w1) + 2.0 * (w1 + w2) * g * g
        object.__setattr__(self, "discriminant", (alpha, beta, 2.0 * a, 2.0 * (w1 + w2)))

    @classmethod
    def from_lambda(cls, mass: float, lam: float, half_period: float) -> "ModelParams":
        # the mass first: lambda's range is meaningless without a valid mass
        _check_positive_finite("mass", mass)
        if not 0 < lam < mass:
            raise ValueError(f"lambda must lie in (0, mass), got lam={lam}, mass={mass}")
        return cls(mass, math.sqrt((mass - lam) * (mass + lam)), half_period)

    @property
    def lam(self) -> float:
        return math.sqrt((self.mass - self.gamma) * (self.mass + self.gamma))

    @property
    def alpha(self) -> float:
        if self.alpha_override is not None:
            return self.alpha_override
        return 0.25 * math.log((self.mass - self.gamma) / (self.mass + self.gamma))

    @property
    def period(self) -> float:
        return 2.0 * self.half_period


def potential_s1(params: ModelParams, x):
    """One-soliton scalar potential; even, strictly negative, -> 0 at infinity."""
    g, lam = params.gamma, params.lam
    return -2.0 * g * g / (params.mass + lam * np.cosh(2.0 * g * np.asarray(x, dtype=float)))


def w_functions(params: ModelParams, x):
    """The pair (w1, w2) = gamma * tanh(gamma*x -+ alpha).

    Note w1(-x) = -w2(x) and w2(-x) = -w1(x); both are bounded by gamma.
    """
    g, al = params.gamma, params.alpha
    xa = np.asarray(x, dtype=float)
    return g * np.tanh(g * xa - al), g * np.tanh(g * xa + al)


def soliton_potential(params: ModelParams):
    """s1 as a function of x alone."""
    return lambda x: potential_s1(params, x)


def fold_into_cell(params: ModelParams, x):
    """Map x into the fundamental cell [-a, a)."""
    a, t = params.half_period, params.period
    xa = np.asarray(x, dtype=float)
    return xa - t * np.floor((xa + a) / t)


def periodized_potential(params: ModelParams):
    """Periodic continuation of the soliton potential, period 2a, as a
    function of x.

    Continuous across cell boundaries because s1 is even.
    """
    return lambda x: potential_s1(params, fold_into_cell(params, x))


def free_pair(q, x):
    """C = cos(x sqrt q) and S = sin(x sqrt q) / sqrt q, the entries of the
    free fundamental matrix exp(A0 x) = C I + S A0; continued to cosh and
    sinh for q < 0, and to C = 1, S = x at q = 0.  q and x broadcast."""
    root = np.sqrt(np.abs(q))
    phase = x * root
    propagating = q >= 0
    evanescent = np.logical_not(propagating)
    c = np.empty_like(phase)
    np.cos(phase, out=c, where=propagating)
    np.cosh(phase, out=c, where=evanescent)
    s = np.empty_like(phase)
    np.sin(phase, out=s, where=propagating)
    np.sinh(phase, out=s, where=evanescent)
    if np.count_nonzero(root) < np.size(root):
        return c, np.divide(s, root, out=np.full_like(phase, x), where=root != 0)
    s /= root
    return c, s


def pole_differences(gamma: float, q, x):
    """The divided differences dC = (C - cosh(gamma x)) / (q + gamma^2) and
    dS = (S - sinh(gamma x)/gamma) / (q + gamma^2) of free_pair, for q < 0,
    written through sinh and cosh of x(kap -+ gamma)/2, kap = sqrt(-q), so
    that nothing cancels at q = -gamma^2.  q and x broadcast."""
    kap, h = np.sqrt(-q), 0.5 * x
    u, v = kap - gamma, kap + gamma
    ratio_u = np.divide(np.sinh(h * u), u, out=np.full(np.broadcast(h, u).shape, h), where=u != 0)
    dc = -2.0 * np.sinh(h * v) / v * ratio_u
    ds = (np.sinh(x * gamma) - 2.0 * gamma * np.cosh(h * v) * ratio_u) / (kap * gamma * v)
    return dc, ds


def basis_spinors(params: ModelParams, energy, x):
    """The columns (psi, phi) of U(x; E) = Phi(x) Phi(0)^-1, the solutions
    with psi(0) = (1, 0) and phi(0) = (0, 1); W(psi, phi) = det U = 1.

    The energy may be an array that broadcasts against x, and each column
    is an array of the two components, shaped (2,) + that broadcast shape;
    every element has the bits of its own scalar call.  Regular at every
    real energy, E = +-lam included (see the module docstring).
    """
    m, g, e = params.mass, params.gamma, np.asarray(energy, dtype=float)
    q = e * e - m * m
    x = np.asarray(x, dtype=float)
    c, s = free_pair(q, x)
    d = q + g**2
    near = np.abs(d) < 0.1 * g * g
    if near.any():
        dc, ds = pole_differences(g, np.where(near, q, -g * g), x)
        c, s, d = np.where(near, dc, c), np.where(near, ds, s), np.where(near, 1.0, d)
    # P = adj B(0) / d and A0 P, then F = C P + S A0 P; dC, dS, 1 and K in the window
    v1, v2 = (float(v) for v in w_functions(params, 0.0))
    p11, p12, p21, p22 = (-m - v2) / d, e / d, -e / d, (m - v1) / d
    f11 = c * p11 + s * (m * p11 - e * p21)
    f12 = c * p12 + s * (m * p12 - e * p22)
    f21 = c * p21 + s * (e * p11 - m * p21)
    f22 = c * p22 + s * (e * p12 - m * p22)
    w1, w2 = w_functions(params, x)
    b11, b22 = m - w1, -m - w2
    u = [b11 * f11 - e * f21, e * f11 + b22 * f21, b11 * f12 - e * f22, e * f12 + b22 * f22]
    if near.any():
        ch, sh = np.cosh(g * x), np.sinh(g * x) / g
        k = [ch + sh * (b11 - v1), sh * e, -sh * e, ch + sh * (b22 - v2)]
        u = [np.where(near, ui + ki, ui) for ui, ki in zip(u, k)]
    return np.array(u[:2]), np.array(u[2:])


def _libm_cosh(z: float) -> float:
    """math.cosh, but inf where it overflows (|z| above about 710.5)."""
    try:
        return math.cosh(z)
    except OverflowError:
        return math.inf


#: libm's cosh elementwise: np.cosh differs from it in the last bit on
#: about a quarter of arguments, and verify's residual-order check reads
#: the bound-state residuals on their rounding floor
_cosh = np.vectorize(_libm_cosh, otypes=[float])


def bound_states(params: ModelParams, x):
    """Columns of (u^t)^(-1) for the cosh transformation matrix, each
    shaped (2,) + shape(x).

    Column 1 solves the transformed problem at E = +lam, column 2 at
    E = -lam; both decay like exp(-gamma*|x|).  The determinant of u is
    2*cosh(g x - a)*cosh(g x + a) >= 2, so u is invertible at every x.
    Where cosh overflows the states read 0.
    """
    g, al = params.gamma, params.alpha
    x = np.asarray(x, dtype=float)
    # an overflowing math.cosh leaves the floating-point overflow flag set,
    # and numpy would warn on it after the vectorized call
    with np.errstate(over="ignore"):
        half_m = 1.0 / (2.0 * _cosh(g * x - al))
        half_p = 1.0 / (2.0 * _cosh(g * x + al))
    return np.array([half_m, half_p]), np.array([-half_m, half_p])
