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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepCountTooSmall
from .spinor import ScalarPotential

DEFAULT_STEPS = 20000
DET_DRIFT_LIMIT = 1e-6

#: blocks x energies integrated side by side; sets the block length.  On a
#: 2 vCPU Xeon the time is flat from 2**13 to 2**16 and higher below it
_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class Monodromy:
    """Fundamental matrix over one period at a single energy."""

    matrix: np.ndarray
    energy: float
    x0: float
    period: float
    steps: int
    potential: ScalarPotential

    @property
    def det(self) -> float:
        return float(_det(*self.matrix.ravel()))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


def _propagate(potential: ScalarPotential, m: float, energies, x0: float, period: float, steps: int):
    """RK4 for the fundamental matrix, all energies at once.

    The step grid is cut into ``n_blocks`` blocks of ``block`` steps; the
    last block is padded with zero-width steps, which RK4 maps to the
    identity exactly.  The RK4 recurrence runs from the identity in every
    block at once, and ``_ordered_product`` multiplies the block matrices.
    A block matrix is I + X with X small, so X is what is carried: rounding
    1 + X would lose the low digits of X in every block alike, and those
    errors would add up over the blocks instead of averaging out.

    Returns the four matrix entries as arrays shaped like ``energies``.
    """
    e = np.asarray(energies, dtype=float)
    h = period / steps
    xs = x0 + h * np.arange(steps + 1)
    s_node = m + potential.values(xs)
    s_half = m + potential.values(xs[:-1] + 0.5 * h)

    n_blocks = max(1, min(_BLOCK_ELEMENTS // max(e.size, 1), steps))
    block = -(-steps // n_blocks)
    n_blocks = -(-steps // block)
    pad = n_blocks * block - steps

    def by_step(values):
        # (steps,) -> (block, n_blocks, 1): row j holds step j of every
        # block; the padding steps get width 0 and samples 0
        padded = np.pad(values, (0, pad))
        return padded.reshape(n_blocks, block).T[:, :, None]

    s_lo, s_mid, s_hi = by_step(s_node[:-1]), by_step(s_half), by_step(s_node[1:])
    h_step = by_step(np.full(steps, h))
    hh_step = 0.5 * h_step
    w_step = h_step / 6.0
    e = e.reshape(1, -1)

    x11 = np.zeros((n_blocks, e.size))
    x12 = np.zeros_like(x11)
    x21 = np.zeros_like(x11)
    x22 = np.zeros_like(x11)

    def rate(s, a11, a12, a21, a22):
        # A(x) (I + X)
        d1, d2 = 1.0 + a11, 1.0 + a22
        return (
            s * d1 - e * a21,
            s * a12 - e * d2,
            e * d1 - s * a21,
            e * a12 - s * d2,
        )

    for i in range(block):
        s0, sm, s1 = s_lo[i], s_mid[i], s_hi[i]
        hs, hh, w = h_step[i], hh_step[i], w_step[i]
        k1 = rate(s0, x11, x12, x21, x22)
        k2 = rate(sm, x11 + hh * k1[0], x12 + hh * k1[1], x21 + hh * k1[2], x22 + hh * k1[3])
        k3 = rate(sm, x11 + hh * k2[0], x12 + hh * k2[1], x21 + hh * k2[2], x22 + hh * k2[3])
        k4 = rate(s1, x11 + hs * k3[0], x12 + hs * k3[1], x21 + hs * k3[2], x22 + hs * k3[3])
        x11 = x11 + w * (k1[0] + 2 * (k2[0] + k3[0]) + k4[0])
        x12 = x12 + w * (k1[1] + 2 * (k2[1] + k3[1]) + k4[1])
        x21 = x21 + w * (k1[2] + 2 * (k2[2] + k3[2]) + k4[2])
        x22 = x22 + w * (k1[3] + 2 * (k2[3] + k3[3]) + k4[3])
    x11, x12, x21, x22 = _ordered_product(x11, x12, x21, x22)
    shape = np.shape(energies)
    return tuple(entry.reshape(shape) for entry in (1.0 + x11, x12, x21, 1.0 + x22))


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


def _check_steps(steps: int) -> None:
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")


def _det(m11, m12, m21, m22):
    return m11 * m22 - m12 * m21


def _check_drift(m11, m12, m21, m22, energies: np.ndarray, steps: int) -> None:
    """Raise StepCountTooSmall when det M drifts from 1 by more than
    DET_DRIFT_LIMIT at any energy: the step is too coarse there.

    The drift is scaled by max(1, max|M_ij|^2): m11*m22 - m12*m21 cancels
    two products of that size, so rounding alone moves det M by about
    eps * max|M_ij|^2 when the cell is strongly evanescent.
    """
    scale = np.maximum(1.0, np.max(np.abs([m11, m12, m21, m22]), axis=0))
    drift = np.abs(_det(m11, m12, m21, m22) - 1.0) / (scale * scale)
    if drift.size and drift.max() > DET_DRIFT_LIMIT:
        worst = energies.ravel()[int(np.argmax(drift))]
        raise StepCountTooSmall(
            f"det drifted by {drift.max():.2e} at E={worst} with {steps} steps; refine"
        )


def integrate_monodromy(
    potential: ScalarPotential,
    m: float,
    energy: float,
    x0: float,
    period: float,
    steps: int = DEFAULT_STEPS,
) -> Monodromy:
    """Fundamental matrix from x0 to x0 + period at one energy.

    Raises StepCountTooSmall when the determinant drifts from 1 by more
    than DET_DRIFT_LIMIT relative to max(1, max|M_ij|^2), which means the
    step is too coarse for this potential and energy.
    """
    _check_steps(steps)
    e = np.array([energy], dtype=float)
    m11, m12, m21, m22 = _propagate(potential, m, e, x0, period, steps)
    _check_drift(m11, m12, m21, m22, e, steps)
    matrix = np.array([[m11[0], m12[0]], [m21[0], m22[0]]])
    return Monodromy(matrix, energy, x0, period, steps, potential)


def lyapunov_numeric(
    potential: ScalarPotential,
    m: float,
    energy: float,
    a: float,
    steps: int = DEFAULT_STEPS,
) -> float:
    """Discriminant as the monodromy trace over [-a, a]."""
    return integrate_monodromy(potential, m, energy, -a, 2.0 * a, steps).trace


def lyapunov_numeric_many(
    potential: ScalarPotential,
    m: float,
    energies,
    a: float,
    steps: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Vectorized discriminant sweep; one integration pass for all energies."""
    _check_steps(steps)
    e = np.asarray(energies, dtype=float)
    m11, m12, m21, m22 = _propagate(potential, m, e, -a, 2.0 * a, steps)
    _check_drift(m11, m12, m21, m22, e, steps)
    return m11 + m22
