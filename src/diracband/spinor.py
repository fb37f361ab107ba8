"""Residuals of the 1D Dirac equation on arrays of positions.

The Hamiltonian is h = i*sigma_y d/dx + (m + S(x))*sigma_x, acting on
two-component spinors.  Written out, h psi = E psi is the first-order
system

    psi1' = (m + S) psi1 - E psi2
    psi2' = E psi1 - (m + S) psi2

which is what every numerical routine in this package integrates or
checks against.  A solution is a function of an x array returning its
two components, shaped (2,) + shape(x); a potential S maps an x array
to an array of the same shape.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def det_drift(m11, m12, m21, m22):
    """|det M - 1| / max(1, max|M_ij|)^2, entrywise over stacked 2x2
    matrices M that should be unimodular.

    m11*m22 - m12*m21 cancels two products of size max|M_ij|^2, so
    rounding alone moves det M by about eps * max|M_ij|^2 where the
    entries are large (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3); the scaled drift reads rounding as eps.
    """
    scale = np.maximum(1.0, np.max(np.abs([m11, m12, m21, m22]), axis=0))
    return np.abs(m11 * m22 - m12 * m21 - 1.0) / (scale * scale)


def hamiltonian_residual(
    solution: Callable,
    potential: Callable,
    m: float,
    energy,
    x,
    h: float = 1e-4,
):
    """Norm of (h - E) applied to the solution at each x, with a
    central-difference derivative of step h; shaped like x broadcast
    against the energy.

    The solution is called once, on y = the rows x + h, x - h and x,
    shaped (3,) + shape(x).  The energy may be an array of no more
    dimensions than x: then the solution is a stack of solutions, one per
    energy, and its values at y are shaped (2, 3) + the broadcast shape.

    For an exact solution at the right energy the result is O(h^2); a
    wrong energy or potential shows up at O(1).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    f = np.asarray(solution(np.stack([x + h, x - h, x])))
    fp, fm, f0 = f[:, 0], f[:, 1], f[:, 2]
    d1 = (fp[0] - fm[0]) / (2 * h)
    d2 = (fp[1] - fm[1]) / (2 * h)
    s = m + potential(x)
    r1 = d2 + s * f0[1] - energy * f0[0]
    r2 = -d1 + s * f0[0] - energy * f0[1]
    return np.hypot(r1, r2)
