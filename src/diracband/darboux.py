"""Darboux transform of the free Dirac problem into the one-soliton one.

The seed is the nodeless eigen-spinor (u11, u21) = (cosh(gamma x - alpha),
cosh(gamma x + alpha)) of the free problem (S = 0) at energy lambda.  It
enters only through its log-derivatives (w1, w2) = ((ln u11)', (ln u21)'),
which soliton.w_functions gives.  The first-order intertwiner

    L = d/dx - diag(w1, w2)

maps free solutions to solutions of the transformed problem, whose scalar
potential is s1 = w2 - w1.

A field is a function of an x array that returns the pair (psi, psi'),
each shaped (2,) + shape(x); L needs psi' itself, not a difference.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .soliton import ModelParams, w_functions


def transformed_potential(params: ModelParams, x):
    """s1(x) = w2(x) - w1(x): the free background's S = 0 plus
    (ln u21)' - (ln u11)'."""
    w1, w2 = w_functions(params, x)
    return w2 - w1


def map_solution(params: ModelParams, field: Callable, x):
    """L psi at each x, shaped (2,) + shape(x).

    The result solves the transformed problem at psi's energy (up to
    normalization); applying L to the seed spinor itself annihilates it.
    """
    return _intertwine(params, *field(x), x)


def _intertwine(params: ModelParams, psi, dpsi, x):
    """L psi from the values psi and psi' at x."""
    return dpsi - np.array(w_functions(params, x)) * psi


def intertwining_check(params: ModelParams, field: Callable, x, h: float = 1e-4):
    """Residual norm of (L h0 - h1 L) psi at each x, shaped like x.

    Holds operator-wise, so psi may be any smooth field, not only a
    solution.  h0 is the free Hamiltonian and h1 has the potential
    transformed_potential.  Outer derivatives are central differences of
    step h; psi and psi' come from one call of the field, on the rows
    x + h, x - h and x.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    m = params.mass
    x = np.asarray(x, dtype=float)
    # rows x + h, x - h, x
    y = np.stack([x + h, x - h, x])
    psi, dpsi = field(y)
    h0_psi = np.array([dpsi[1] + m * psi[1], -dpsi[0] + m * psi[0]])
    l_psi = _intertwine(params, psi, dpsi, y)

    w = np.array(w_functions(params, x))
    lhs = (h0_psi[:, 0] - h0_psi[:, 1]) / (2 * h) - w * h0_psi[:, 2]
    dl = (l_psi[:, 0] - l_psi[:, 1]) / (2 * h)
    p1 = m + transformed_potential(params, x)
    rhs = np.array([dl[1] + p1 * l_psi[1, 2], -dl[0] + p1 * l_psi[0, 2]])
    return np.hypot(*(lhs - rhs))
