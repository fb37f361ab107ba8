"""Independent verification path: direct RK4 integration of the Dirac
system over one period.

The fundamental 2x2 matrix M(x) solves M' = A(x) M, M(x0) = I with

    A(x) = [[ m+S(x), -E ], [ E, -(m+S(x)) ]]

A is trace-free, so det M = 1 exactly; determinant drift measures the
integration error.  tr M(x0+T) is the discriminant of the periodic
problem and must match the closed form wherever both are defined.

The step count follows the cell by step doubling, the classical error
estimate of a one-step method (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.4): D is integrated at N steps and at 2N, and N doubles while
|D_N - D_2N| / max(1, |D_2N|) exceeds ERROR_TARGET at any energy and 2N
stays within MAX_STEPS.  A count at which det M drifts is doubled too;
only a drift at the last count raises.  RK4's error falls 16-fold per
doubling, so the estimate bounds the error of D_2N about fifteen times
over.

The system is linear, so the RK4 map over one period is the ordered
product of the per-step RK4 matrices, and that product may be grouped
freely.  The step grid is cut into blocks; the RK4 recurrence runs in
all blocks and at all energies at once, starting from the identity, and
the block matrices are then multiplied by a pairwise tree reduction (an
associative scan).  The Python loop runs over one block instead of one
period.  A single fixed-step grid of potential samples is shared
by every energy.

One RK4 step is I + D, where D is a polynomial in E whose coefficients
depend only on h and the step's samples of m+S at x, x+h/2 and x+h: the
diagonal entries are c0 + c2 E^2 + c4 E^4, the off-diagonal ones
E (c1 + c3 E^2).  This is the same four-stage map, regrouped exactly
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1).  Products of such
maps keep the form: over k steps the diagonal entries are polynomials in
E^2 with 2k+1 coefficients, the off-diagonal ones E times polynomials in
E^2 with 2k.  So runs of up to eight steps are composed once per call,
on the coefficients and before any energy is seen, into one fused step.
The loop then takes one fused step per run: matrix products of the
powers of E with the coefficient rows give P(E) for a few fused steps of
every block, and X <- (X + P) + P X costs 20 array operations.
The diagonal entries are even in E and the off-diagonal ones odd, so
M(-E) = sigma_z M(|E|) sigma_z holds exactly and only the distinct |E|
are integrated.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import StepCountTooSmall
from .spinor import det_drift

#: the first step count of the doubling
DEFAULT_STEPS = 2000
#: doubling stops once |D_N - D_2N| / max(1, |D_2N|) is at most this at
#: every energy of the call
ERROR_TARGET = 1e-7
#: ... or when doubling again would pass this count; D at the last count
#: is then returned as it is, without an error
MAX_STEPS = 32000
DET_DRIFT_LIMIT = 1e-6

#: blocks x energies integrated side by side; sets the block length.  On a
#: 2 vCPU Xeon, with one RK4 step per pass of the loop, 20000 steps at 701
#: energies took 0.49 s at 2**12, 0.41 s at 2**13 and 2**14 and 0.70 s at
#: 2**15; 1 and 40 energies were flat there
_BLOCK_ELEMENTS = 2**13
#: most RK4 steps composed into one fused step, a power of two.  On a
#: 2 vCPU Xeon at 20000 steps, 4 was slower from 100 energies up, and 16
#: slower at 100 to 400 and faster only at 701.  Below 64 energies fewer
#: steps are fused (see _propagate): there the composition costs more
#: than it saves, and 1 was fastest at 1 to 8 energies, 2 at 12, 4 at 40
_FUSED = 8
#: fused steps evaluated per matrix product; 4 was faster there than 8 to
#: 64, whose products and their operands no longer fit the cache
_CHUNK = 4


def _add_product(out, p, q):
    """out += p(t) q(t), for polynomials in t whose coefficients, from t^0
    up, run along axis 1; out holds at least the product's coefficients."""
    n = q.shape[1]
    term = np.empty_like(q)
    for i in range(p.shape[1]):
        np.multiply(p[:, i:i + 1], q, out=term)
        out[:, i:i + n] += term


def _fuse_pairs(f):
    """Compose step maps pairwise: positions 2i (first, A) and 2i+1
    (second, B) along axis 2 of f, shaped (4, L, positions, groups),
    become one map I + P with P = A + B + BA, shaped
    (4, 2L-1, positions/2, groups).

    Axis 0 holds the entries 11, 22, 12, 21 as polynomials in t = E^2
    along axis 1; the off-diagonal entries are E times their polynomial,
    whose last coefficient is zero, so a product of two of them is t
    times the product of the polynomials.
    """
    a, b = f[:, :, 0::2], f[:, :, 1::2]
    n = f.shape[1]
    fused = np.zeros((4, 2 * n - 1) + a.shape[2:])
    np.add(a, b, out=fused[:, :n])
    # (BA)11 = B11 A11 + t B12 A21, (BA)22 = B22 A22 + t B21 A12
    _add_product(fused[:2], b[:2], a[:2])
    _add_product(fused[:2, 1:], b[2:, :-1], a[3:1:-1, :-1])
    # (BA)12 = B11 A12 + B12 A22, (BA)21 = B22 A21 + B21 A11
    _add_product(fused[2:], b[:2], a[2:, :-1])
    _add_product(fused[2:], b[2:, :-1], a[1::-1])
    return fused


def _propagate(potential: Callable, m: float, energies, x0: float, period: float, steps: int):
    """RK4 for the fundamental matrix, all energies at once.

    The step grid is cut into ``n_blocks`` blocks of ``block`` steps, and
    each block into ``n_fused`` groups of ``fused`` steps (``_FUSED`` from
    64 energies up, fewer below); the steps past the grid's end get
    coefficients that are all zero, so they map to the identity exactly.
    The steps of each group are composed once per call, before any energy
    is seen, into one fused step I + P whose entries are polynomials in E
    (``_fuse_pairs``).  The loop evaluates P for ``_CHUNK`` fused steps of
    every block at a time, as matrix products of the powers of E with the
    coefficient rows, and accumulates X <- (X + P) + P X in every block at
    once, from X = 0; ``_ordered_product`` then multiplies the block
    matrices.  A block matrix is I + X with X small, so X is carried:
    rounding 1 + X would lose X's low digits in every block alike, and the
    errors would add up over the blocks instead of averaging out.

    Each distinct |E| is integrated once; M(-E) = sigma_z M(|E|) sigma_z
    is exact.  ``n_blocks`` and ``fused`` follow the requested energy
    count, not the distinct one, and each energy's powers take a matrix
    product of their own, of one shape whatever the other energies are,
    so an energy's bits do not depend on the other energies of the call.
    (One product over all energies is faster, but the BLAS picks its
    kernel by the shape of the product and the place of a column in it,
    so an energy's last bits could move with the number and values of its
    neighbours.)

    Returns the four matrix entries as arrays shaped like ``energies``.
    """
    energies = np.asarray(energies, dtype=float)
    h = period / steps
    xs = x0 + h * np.arange(steps + 1)
    s_node = m + potential(xs)
    s_half = m + potential(xs[:-1] + 0.5 * h)

    n_blocks = max(1, min(_BLOCK_ELEMENTS // max(energies.size, 1), steps))
    block = -(-steps // n_blocks)
    n_blocks = -(-steps // block)
    # composing costs about the same per step at any energy count, and
    # each doubling of ``fused`` saves a few operations per step and
    # energy: the largest power of two at most an eighth of the energies
    fused = min(_FUSED, 1 << max(0, (energies.size // 8).bit_length() - 1))
    n_fused = -(-block // fused)

    # 24 times one step's coefficients: c0, c2, c4 of each diagonal entry,
    # c1, c3 of each off-diagonal one (module docstring)
    s0, sm, s1 = s_node[:-1], s_half, s_node[1:]
    p, q, eta, delta = h * (s0 + s1), h * h * s0 * s1, h * sm, h * (s0 - s1)
    mu = eta * eta
    even, odd = q * mu + 4.0 * eta * p + 4.0 * mu, 2.0 * p * mu + 4.0 * p + 16.0 * eta
    h4 = np.full(steps, h**4)
    by_step = np.zeros((4, 3, n_blocks * block))
    by_step[0, :, :steps] = even + odd, -h * h * (q + mu + 12.0 + 2.0 * p), h4
    by_step[1, :, :steps] = even - odd, -h * h * (q + mu + 12.0 - 2.0 * p), h4
    by_step[2, :2, :steps] = h * (delta * mu + 4.0 * delta - 4.0 * mu - 24.0), -h**3 * (delta - 4.0)
    by_step[3, :2, :steps] = h * (delta * mu + 4.0 * delta + 4.0 * mu + 24.0), -h**3 * (delta + 4.0)
    # (entry, coefficient, position in group, group), groups block-major
    f = np.zeros((4, 3, n_blocks, n_fused * fused))
    f[..., :block] = by_step.reshape(4, 3, n_blocks, block) / 24.0
    f = np.ascontiguousarray(f.reshape(4, 3, -1, fused).transpose(0, 1, 3, 2))
    while f.shape[2] > 1:
        f = _fuse_pairs(f)
    # (power, fused step, entry, block): diagonal entries in t^j,
    # off-diagonal ones in E t^j
    f = f.reshape(4, 2 * fused + 1, n_blocks, n_fused).transpose(1, 3, 0, 2)
    diagonal = np.ascontiguousarray(f[:, :, :2])
    off_diagonal = np.ascontiguousarray(f[:-1, :, 2:])

    e, back = np.unique(np.abs(energies).ravel(), return_inverse=True)
    powers = (e * e)[:, None, None] ** np.arange(2 * fused + 1)
    odd_powers = e[:, None, None] * powers[:, :, :-1]

    x11, x12, x21, x22, t1, t2, t3 = np.zeros((7, e.size, n_blocks))
    for start in range(0, n_fused, _CHUNK):
        rows = slice(start, min(start + _CHUNK, n_fused))
        # (energies, 1, powers) @ (powers, fused steps x 2 entries x blocks),
        # then one contiguous (energies, blocks) slab per fused step and entry
        pd = np.matmul(powers, diagonal[:, rows].reshape(2 * fused + 1, -1))
        po = np.matmul(odd_powers, off_diagonal[:, rows].reshape(2 * fused, -1))
        shape = (e.size, rows.stop - start, 2, n_blocks)
        pd = np.ascontiguousarray(pd.reshape(shape).transpose(1, 2, 0, 3))
        po = np.ascontiguousarray(po.reshape(shape).transpose(1, 2, 0, 3))
        for (p11, p22), (p12, p21) in zip(pd, po):
            # X <- (X + P) + P X, one column of X at a time
            for xa, xb, pa, pb in ((x11, x21, p11, p21), (x12, x22, p12, p22)):
                np.multiply(p11, xa, out=t1)
                np.multiply(p12, xb, out=t2)
                np.add(t1, t2, out=t1)
                np.multiply(p21, xa, out=t3)
                np.multiply(p22, xb, out=t2)
                np.add(t3, t2, out=t3)
                np.add(xa, pa, out=xa)
                np.add(xa, t1, out=xa)
                np.add(xb, pb, out=xb)
                np.add(xb, t3, out=xb)
    product = _ordered_product(x11.T, x12.T, x21.T, x22.T)
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
    coarse there.  The drift is scaled by max(1, max|M_ij|^2), the
    rounding scale of det M in a strongly evanescent cell (det_drift).
    """
    drift = det_drift(m11, m12, m21, m22)
    if drift.size and not drift.max() <= DET_DRIFT_LIMIT:  # NaN fails too
        worst = energies.ravel()[int(np.argmax(drift))]
        raise StepCountTooSmall(
            f"det drifted by {drift.max():.2e} at E={worst} with {steps} steps; refine"
        )


def _trace(potential: Callable, m: float, energies: np.ndarray, a: float, steps: int) -> np.ndarray:
    """tr M over [-a, a] at ``steps`` steps, after the det-drift check."""
    m11, m12, m21, m22 = _propagate(potential, m, energies, -a, 2.0 * a, steps)
    _check_drift(m11, m12, m21, m22, energies, steps)
    return m11 + m22


def lyapunov_numeric_many(
    potential: Callable,
    m: float,
    energies,
    a: float,
    steps: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Discriminant tr M over [-a, a] at every energy; ``potential`` maps
    an x array to S(x).

    ``steps`` is the first step count.  The count doubles while
    |D_N - D_2N| / max(1, |D_2N|), between the last two counts, exceeds
    ERROR_TARGET at any energy and the doubled count is within MAX_STEPS;
    every energy is integrated at every count.  Returns D at the last
    count: from DEFAULT_STEPS that is 4000 to MAX_STEPS, and a first count
    above MAX_STEPS / 2 is the only one.

    det M is checked at every count.  Where it drifts from 1 by more than
    DET_DRIFT_LIMIT relative to max(1, max|M_ij|^2) the step is too coarse
    for this potential and energy: below the cap the count doubles, and at
    the last count StepCountTooSmall is raised.
    """
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    e = np.asarray(energies, dtype=float)
    coarse = None
    # where h|E| is too large for RK4 the entries overflow to inf or NaN;
    # the drift check turns that into a refinement or StepCountTooSmall,
    # not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            last = 2 * steps > MAX_STEPS
            try:
                fine = _trace(potential, m, e, a, steps)
            except StepCountTooSmall:
                if last:
                    raise
                coarse, steps = None, 2 * steps
                continue
            if last:
                return fine
            if coarse is not None:
                error = np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))
                if not np.any(error > ERROR_TARGET):
                    return fine
            coarse, steps = fine, 2 * steps
