"""Scalar-potential Darboux transform for the 1D Dirac equation.

A seed is a pair of nodeless real functions (u11, u21), the components
of an eigen-spinor of the background problem at energy lambda1.  The
first-order intertwiner

    L = d/dx - diag((ln u11)', (ln u21)')

maps background solutions to solutions of the transformed problem, whose
scalar potential is s1 = s0 + (ln u21)' - (ln u11)'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import SingularTransform
from .soliton import ModelParams
from .spinor import FD_STEP, ScalarPotential, Spinor, SpinorField

#: components smaller than this are treated as nodes of the seed
NODE_EPS = 1e-12


@dataclass(frozen=True)
class TransformSeed:
    """Transformation-function data for a scalar Darboux transform.

    ``mass`` is part of the background Hamiltonian definition (the scalar
    coefficient is mass + s0); it is needed whenever the seed is used to
    build operators, not just potentials.  Derivatives are optional:
    analytic ones keep the core path exact, otherwise a central
    difference with step FD_STEP is substituted.
    """

    u11: Callable[[float], float]
    u21: Callable[[float], float]
    lambda1: float
    s0: ScalarPotential
    mass: float
    du11: Callable[[float], float] | None = None
    du21: Callable[[float], float] | None = None

    def _component(self, which: int, x: float) -> tuple[float, float]:
        u = self.u11 if which == 1 else self.u21
        du = self.du11 if which == 1 else self.du21
        ux = u(x)
        if abs(ux) < NODE_EPS:
            raise SingularTransform(f"u{which}1({x}) = {ux}; seed has a node here")
        dux = du(x) if du is not None else (u(x + FD_STEP) - u(x - FD_STEP)) / (2 * FD_STEP)
        return ux, dux

    def log_derivatives(self, x: float) -> tuple[float, float]:
        """((ln u11)', (ln u21)') at x."""
        u1, du1 = self._component(1, x)
        u2, du2 = self._component(2, x)
        return du1 / u1, du2 / u2


def soliton_seed(params: ModelParams) -> TransformSeed:
    """The cosh seed over a free background; its transform is the
    one-soliton potential."""
    g, al = params.gamma, params.alpha
    return TransformSeed(
        u11=lambda x: math.cosh(g * x - al),
        u21=lambda x: math.cosh(g * x + al),
        du11=lambda x: g * math.sinh(g * x - al),
        du21=lambda x: g * math.sinh(g * x + al),
        lambda1=params.lam,
        s0=ScalarPotential.zero(),
        mass=params.mass,
    )


def transformed_potential(seed: TransformSeed, x: float) -> float:
    """s1(x) = s0(x) + (ln u21)'(x) - (ln u11)'(x)."""
    g1, g2 = seed.log_derivatives(x)
    return float(seed.s0(x)) + g2 - g1


def map_solution(seed: TransformSeed, psi: SpinorField, x: float) -> Spinor:
    """Apply the intertwiner L to a background solution at x.

    The result solves the transformed problem at psi.energy (up to
    normalization); applying L to the seed spinor itself annihilates it.
    """
    g1, g2 = seed.log_derivatives(x)
    v = psi(x)
    dv = psi.d(x)
    return Spinor(dv.c1 - g1 * v.c1, dv.c2 - g2 * v.c2)


def intertwining_check(
    seed: TransformSeed,
    psi: SpinorField,
    x: float,
    h: float = 1e-4,
    transformed_s: Callable[[float], float] | None = None,
) -> float:
    """Residual norm of (L h0 - h1 L) psi at x.

    Holds operator-wise, so psi may be any smooth field, not only a
    solution.  Outer derivatives use central differences of step h;
    psi itself and psi' come from the field.  ``transformed_s`` replaces
    the seed-derived s1, which lets tests corrupt h1 deliberately.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    s1 = transformed_s if transformed_s is not None else (lambda y: transformed_potential(seed, y))

    def h0_psi(y: float) -> tuple[float, float]:
        v, dv = psi(y), psi.d(y)
        p = seed.mass + float(seed.s0(y))
        return dv.c2 + p * v.c2, -dv.c1 + p * v.c1

    def l_psi(y: float) -> tuple[float, float]:
        g1, g2 = seed.log_derivatives(y)
        v, dv = psi(y), psi.d(y)
        return dv.c1 - g1 * v.c1, dv.c2 - g2 * v.c2

    g1, g2 = seed.log_derivatives(x)

    ap, am, a0 = h0_psi(x + h), h0_psi(x - h), h0_psi(x)
    lhs = (
        (ap[0] - am[0]) / (2 * h) - g1 * a0[0],
        (ap[1] - am[1]) / (2 * h) - g2 * a0[1],
    )

    bp, bm, b0 = l_psi(x + h), l_psi(x - h), l_psi(x)
    db = ((bp[0] - bm[0]) / (2 * h), (bp[1] - bm[1]) / (2 * h))
    p1 = seed.mass + float(s1(x))
    rhs = (db[1] + p1 * b0[1], -db[0] + p1 * b0[0])

    return math.hypot(lhs[0] - rhs[0], lhs[1] - rhs[1])
