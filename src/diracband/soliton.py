"""Closed forms for the one-soliton scalar potential and its solutions.

The model is fixed by a mass m, a steepness gamma in (0, m) and a
half-period a.  Everything else is derived:

    lam   = sqrt(m^2 - gamma^2)        bound-state energies +-lam
    alpha = (1/4) ln((m-gamma)/(m+gamma))
    s1(x) = -2 gamma^2 / (m + lam cosh(2 gamma x))

The basis solutions at arbitrary energy are elementary; they are
evaluated in complex arithmetic with the branch Im k >= 0 so the same
expressions cover the propagating (|E| > m) and evanescent (|E| < m)
regimes.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnergy, SingularTransform
from .spinor import ScalarPotential, Spinor, SpinorField

#: |E^2 - m^2| or |E^2 - lam^2| below this is treated as a singular energy
DEGENERATE_EPS = 1e-9


def _check_positive_finite(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameter set: mass, soliton steepness, half-period.

    ``alpha_override`` replaces the derived asymmetry parameter; it exists
    for sensitivity diagnostics (the self-check suite corrupts alpha to
    confirm the band-edge regression notices) and should stay None in
    normal use.
    """

    mass: float
    gamma: float
    half_period: float
    alpha_override: float | None = None

    def __post_init__(self):
        _check_positive_finite("mass", self.mass)
        if not 0 < self.gamma < self.mass:
            raise ValueError(
                f"gamma must lie in (0, mass), got gamma={self.gamma}, mass={self.mass}"
            )
        _check_positive_finite("half_period", self.half_period)

    @classmethod
    def from_lambda(cls, mass: float, lam: float, half_period: float) -> "ModelParams":
        # the mass first: lambda's range is meaningless without a valid mass
        _check_positive_finite("mass", mass)
        if not 0 < lam < mass:
            raise ValueError(f"lambda must lie in (0, mass), got lam={lam}, mass={mass}")
        return cls(mass, math.sqrt(mass * mass - lam * lam), half_period)

    @property
    def lam(self) -> float:
        return math.sqrt(self.mass * self.mass - self.gamma * self.gamma)

    @property
    def alpha(self) -> float:
        if self.alpha_override is not None:
            return self.alpha_override
        return 0.25 * math.log((self.mass - self.gamma) / (self.mass + self.gamma))

    @property
    def period(self) -> float:
        return 2.0 * self.half_period


@dataclass(frozen=True)
class Kinematics:
    """Energy with its derived complex momentum and phase.

    k = sqrt(E^2 - m^2) on the branch Im k >= 0.  The phase delta
    satisfies tan(delta) = k/m on the branch with cos(delta) = m/E and
    sin(delta) = k/E (principal arctan shifted by -pi for E < 0); this
    is the branch on which the closed-form solutions keep unit Wronskian
    and the discriminant stays even across E = 0.
    """

    energy: float
    k: complex
    delta: complex

    @classmethod
    def for_energy(cls, mass: float, energy: float) -> "Kinematics":
        k = cmath.sqrt(complex(energy * energy - mass * mass))
        if k.imag < 0:
            k = -k
        try:
            delta = cmath.atan(k / mass)
        except ValueError as exc:  # arctan pole at k/m = i, i.e. E = 0
            raise DegenerateEnergy(f"phase arctan(k/m) diverges at E={energy}") from exc
        if energy < 0:
            delta -= math.pi
        return cls(energy, k, delta)


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


def soliton_potential(params: ModelParams) -> ScalarPotential:
    return ScalarPotential(
        lambda x: potential_s1(params, x),
        f"one-soliton (mass={params.mass}, gamma={params.gamma})",
    )


def fold_into_cell(params: ModelParams, x):
    """Map x into the fundamental cell [-a, a)."""
    a, t = params.half_period, params.period
    xa = np.asarray(x, dtype=float)
    return xa - t * np.floor((xa + a) / t)


def periodized_potential(params: ModelParams) -> ScalarPotential:
    """Periodic continuation of the soliton potential, period 2a.

    Continuous across cell boundaries because s1 is even.
    """
    return ScalarPotential(
        lambda x: potential_s1(params, fold_into_cell(params, x)),
        f"periodized one-soliton (mass={params.mass}, gamma={params.gamma}, a={params.half_period})",
    )


def _guard_energy(params: ModelParams, energy: float, eps: float) -> None:
    if abs(energy * energy - params.mass**2) < eps:
        raise DegenerateEnergy(
            f"E={energy} too close to |E|=m={params.mass}; closed forms have a 0/0 there"
        )
    if abs(energy * energy - params.lam**2) < eps:
        raise DegenerateEnergy(
            f"E={energy} too close to the bound-state energies +-{params.lam}; "
            "basis prefactor 1/sqrt(k^2+gamma^2) diverges"
        )


def basis_spinors(
    params: ModelParams,
    kin: Kinematics,
    x: float,
    *,
    degenerate_eps: float = DEGENERATE_EPS,
) -> tuple[Spinor, Spinor]:
    """Closed-form solution pair at kin.energy, normalized to unit Wronskian.

    Returns (psi, phi) with W(psi, phi) = 1 at every x.  Raises
    DegenerateEnergy within ``degenerate_eps`` of |E| = m (k = 0) and of
    |E| = lam (vanishing normalization).
    """
    _guard_energy(params, kin.energy, degenerate_eps)
    e, k, delta = kin.energy, kin.k, kin.delta
    w1, w2 = w_functions(params, x)
    s = cmath.sqrt(params.gamma**2 + k * k)
    kx = k * x
    psi = Spinor(
        (e / s) * (cmath.cos(kx) - (w1 / k) * cmath.sin(kx)),
        (e / s) * (cmath.cos(kx - delta) - (w2 / k) * cmath.sin(kx - delta)),
    )
    phi = Spinor(
        (-1.0 / s) * (k * cmath.sin(kx) + w1 * cmath.cos(kx)),
        (-1.0 / s) * (k * cmath.sin(kx - delta) + w2 * cmath.cos(kx - delta)),
    )
    return psi, phi


def basis_fields(
    params: ModelParams,
    energy: float,
    *,
    degenerate_eps: float = DEGENERATE_EPS,
) -> tuple[SpinorField, SpinorField]:
    """The basis pair as spinor fields over the whole axis."""
    _guard_energy(params, energy, degenerate_eps)
    kin = Kinematics.for_energy(params.mass, energy)
    psi = SpinorField(
        lambda x: basis_spinors(params, kin, x, degenerate_eps=degenerate_eps)[0],
        energy,
        label="soliton basis psi",
    )
    phi = SpinorField(
        lambda x: basis_spinors(params, kin, x, degenerate_eps=degenerate_eps)[1],
        energy,
        label="soliton basis phi",
    )
    return psi, phi


def bound_states(params: ModelParams, x: float) -> tuple[Spinor, Spinor]:
    """Columns of (u^t)^(-1) for the cosh transformation matrix.

    Column 1 solves the transformed problem at E = +lam, column 2 at
    E = -lam; both decay like exp(-gamma*|x|).  The determinant of u is
    2*cosh(g x - a)*cosh(g x + a) >= 2, so the guard never fires for
    valid parameters, but it is kept against misuse.
    """
    g, al = params.gamma, params.alpha
    cm = math.cosh(g * x - al)
    cp = math.cosh(g * x + al)
    det = 2.0 * cm * cp
    if abs(det) < 1e-12:
        raise SingularTransform(f"transformation matrix singular at x={x}")
    return (
        Spinor(1.0 / (2.0 * cm), 1.0 / (2.0 * cp)),
        Spinor(-1.0 / (2.0 * cm), 1.0 / (2.0 * cp)),
    )


def bound_state_fields(params: ModelParams) -> tuple[SpinorField, SpinorField]:
    v1 = SpinorField(lambda x: bound_states(params, x)[0], params.lam, label="bound state +lam")
    v2 = SpinorField(lambda x: bound_states(params, x)[1], -params.lam, label="bound state -lam")
    return v1, v2
