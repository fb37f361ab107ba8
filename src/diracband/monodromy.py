"""Independent verification path: direct RK4 integration of the Dirac
system over one period.

The fundamental 2x2 matrix M(x) solves M' = A(x) M, M(x0) = I with

    A(x) = [[ m+S(x), -E ], [ E, -(m+S(x)) ]]

A is trace-free, so det M = 1 exactly; determinant drift measures the
integration error.  tr M(x0+T) is the discriminant of the periodic
problem and must match the closed form wherever both are defined.

The system is linear, so the RK4 map over one period is the ordered
product of the per-step RK4 matrices, and that product may be grouped
freely.  The step grid is cut into blocks; the RK4 recurrence runs in
all blocks and at all energies at once, starting from the identity, and
the block matrices are then multiplied by a pairwise tree reduction (an
associative scan).  The Python loop is one block long instead of one
period long.  A single fixed-step grid of potential samples is shared
by every energy.

One RK4 step is I + D, where D is a polynomial in E whose coefficients
depend only on h and the step's samples of m+S at x, x+h/2 and x+h: the
diagonal entries are c0 + c2 E^2 + c4 E^4, the off-diagonal ones
E (c1 + c3 E^2).  This is the same four-stage map, regrouped exactly
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1).  The coefficients
are built once per call, and each step costs about 34 array operations
in Horner form instead of about 100 for the four stages, into buffers
allocated once.  A(-E) = sigma_z A(E) sigma_z, and each step keeps that
exactly in floating point, so only the distinct |E| are integrated.
"""
from __future__ import annotations

import numpy as np

from .errors import StepCountTooSmall
from .spinor import ScalarPotential

DEFAULT_STEPS = 20000
DET_DRIFT_LIMIT = 1e-6

#: blocks x energies integrated side by side; sets the block length.  On a
#: 2 vCPU Xeon, 20000 steps at 701 energies take 0.49 s at 2**12, 0.41 s at
#: 2**13 and 2**14 and 0.70 s at 2**15; 1 and 40 energies are flat there
_BLOCK_ELEMENTS = 2**13


def _propagate(potential: ScalarPotential, m: float, energies, x0: float, period: float, steps: int):
    """RK4 for the fundamental matrix, all energies at once.

    The step grid is cut into ``n_blocks`` blocks of ``block`` steps; the
    last block is padded with steps whose coefficients are all zero, so
    they map to the identity exactly.  Each step builds D in Horner form
    and accumulates X <- (X + D) + D X in every block at once, from X = 0,
    in reused buffers; ``_ordered_product`` then multiplies the block
    matrices.  A block matrix is I + X with X small, so X is carried:
    rounding 1 + X would lose X's low digits in every block alike, and the
    errors would add up over the blocks instead of averaging out.

    Each distinct |E| is integrated once; M(-E) = sigma_z M(|E|) sigma_z
    is exact.  ``n_blocks`` follows the requested energy count, not the
    distinct one, so an energy's bits do not depend on its mirrors.

    Returns the four matrix entries as arrays shaped like ``energies``.
    """
    energies = np.asarray(energies, dtype=float)
    h = period / steps
    xs = x0 + h * np.arange(steps + 1)
    s_node = m + potential.values(xs)
    s_half = m + potential.values(xs[:-1] + 0.5 * h)

    n_blocks = max(1, min(_BLOCK_ELEMENTS // max(energies.size, 1), steps))
    block = -(-steps // n_blocks)
    n_blocks = -(-steps // block)
    pad = n_blocks * block - steps

    def by_step(values):
        # (steps,) -> (block, n_blocks, 1): row j holds step j of every
        # block; the padding steps get zeros
        padded = np.pad(values, (0, pad))
        return padded.reshape(n_blocks, block).T[:, :, None]

    # 24 times D's coefficients (module docstring), in the loop's order
    s0, sm, s1 = s_node[:-1], s_half, s_node[1:]
    p, q, eta, delta = h * (s0 + s1), h * h * s0 * s1, h * sm, h * (s0 - s1)
    mu = eta * eta
    even, odd = q * mu + 4.0 * eta * p + 4.0 * mu, 2.0 * p * mu + 4.0 * p + 16.0 * eta
    coefficients = zip(*(by_step(c / 24.0) for c in (
        even + odd, even - odd,
        -h * h * (q + mu + 12.0 + 2.0 * p), -h * h * (q + mu + 12.0 - 2.0 * p),
        np.full(steps, h**4),
        h * (delta * mu + 4.0 * delta - 4.0 * mu - 24.0),
        h * (delta * mu + 4.0 * delta + 4.0 * mu + 24.0),
        -h**3 * (delta - 4.0), -h**3 * (delta + 4.0),
    )))
    e, back = np.unique(np.abs(energies).ravel(), return_inverse=True)
    e2 = e * e

    x11, x12, x21, x22, d11, d12, d21, d22, t1, t2, t3 = np.zeros((11, n_blocks, e.size))
    for c0_11, c0_22, c2_11, c2_22, c4, c1_12, c1_21, c3_12, c3_21 in coefficients:
        # D in place: d11 = c0 + e2 (c2 + c4 e2), d12 = e (c1 + c3 e2)
        np.multiply(c4, e2, out=t1)
        for d, c0, c2 in ((d11, c0_11, c2_11), (d22, c0_22, c2_22)):
            np.add(c2, t1, out=d)
            np.multiply(d, e2, out=d)
            np.add(d, c0, out=d)
        for d, c1, c3 in ((d12, c1_12, c3_12), (d21, c1_21, c3_21)):
            np.multiply(c3, e2, out=d)
            np.add(d, c1, out=d)
            np.multiply(d, e, out=d)
        # X <- (X + D) + D X, one column of X at a time
        for xa, xb, da, db in ((x11, x21, d11, d21), (x12, x22, d12, d22)):
            np.multiply(d11, xa, out=t1)
            np.multiply(d12, xb, out=t2)
            np.add(t1, t2, out=t1)
            np.multiply(d21, xa, out=t3)
            np.multiply(d22, xb, out=t2)
            np.add(t3, t2, out=t3)
            np.add(xa, da, out=xa)
            np.add(xa, t1, out=xa)
            np.add(xb, db, out=xb)
            np.add(xb, t3, out=xb)
    product = _ordered_product(x11, x12, x21, x22)
    x11, x12, x21, x22 = (x[back].reshape(energies.shape) for x in product)
    sign = np.where(energies < 0, -1.0, 1.0)
    return 1.0 + x11, sign * x12, sign * x21, 1.0 + x22


def _ordered_product(x11, x12, x21, x22):
    """X with I + X = (I + X[n-1]) ... (I + X[1]) (I + X[0]), for
    deviations from the identity stacked along axis 0.

    Pairs are reduced level by level, (I + B)(I + A) = I + (A + B + BA);
    an odd last matrix is carried up one level.
    """
    while len(x11) > 1:
        n = len(x11) // 2 * 2
        a11, a12, a21, a22 = x11[0:n:2], x12[0:n:2], x21[0:n:2], x22[0:n:2]
        b11, b12, b21, b22 = x11[1:n:2], x12[1:n:2], x21[1:n:2], x22[1:n:2]
        pairs = (
            a11 + b11 + (b11 * a11 + b12 * a21),
            a12 + b12 + (b11 * a12 + b12 * a22),
            a21 + b21 + (b21 * a11 + b22 * a21),
            a22 + b22 + (b21 * a12 + b22 * a22),
        )
        x11, x12, x21, x22 = (
            np.concatenate((p, entry[n:])) for p, entry in zip(pairs, (x11, x12, x21, x22))
        )
    return x11[0], x12[0], x21[0], x22[0]


def _check_drift(m11, m12, m21, m22, energies: np.ndarray, steps: int) -> None:
    """Raise StepCountTooSmall when det M drifts from 1 by more than
    DET_DRIFT_LIMIT at any energy, or is not finite: the step is too
    coarse there.

    The drift is scaled by max(1, max|M_ij|^2): m11*m22 - m12*m21 cancels
    two products of that size, so rounding alone moves det M by about
    eps * max|M_ij|^2 when the cell is strongly evanescent.
    """
    scale = np.maximum(1.0, np.max(np.abs([m11, m12, m21, m22]), axis=0))
    drift = np.abs(m11 * m22 - m12 * m21 - 1.0) / (scale * scale)
    if drift.size and not drift.max() <= DET_DRIFT_LIMIT:  # NaN fails too
        worst = energies.ravel()[int(np.argmax(drift))]
        raise StepCountTooSmall(
            f"det drifted by {drift.max():.2e} at E={worst} with {steps} steps; refine"
        )


def lyapunov_numeric_many(
    potential: ScalarPotential,
    m: float,
    energies,
    a: float,
    steps: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Discriminant tr M over [-a, a] at every energy, in one integration
    pass.

    Raises StepCountTooSmall when det M drifts from 1 by more than
    DET_DRIFT_LIMIT relative to max(1, max|M_ij|^2), which means the
    step is too coarse for this potential and energy.
    """
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    e = np.asarray(energies, dtype=float)
    m11, m12, m21, m22 = _propagate(potential, m, e, -a, 2.0 * a, steps)
    _check_drift(m11, m12, m21, m22, e, steps)
    return m11 + m22
