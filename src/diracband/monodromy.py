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
over.  The first count is sized from the right-hand side, as the same
section chooses a starting step: with omega = max(max |E|, max |m + S|)
over the call and the cell, it is the smallest DEFAULT_STEPS * 2**k at
which h * omega <= FIRST_STEP_SCALE (``first_steps``).  Over the 1,024
oracle sets of bench seeds 1-16 the band edges of ``bands --verify``
then stop at 500 steps (55 calls), 1000 (162), 2000 (342), 4000 (389),
8000 (42), 16000 (14) and 32000 (20), and verify's 40 energies at 500
(46), 1000 (147), 2000 (293), 4000 (470) and 8000 (68).

The steps run between nodes that include given knots: a tabulated
potential, linear between its rows, passes its x column, and each
interval between knots inside [-a, a] is cut into the same number of
equal steps (the uniform grid is the case with one interval).  RK4 then
meets one linear piece per step and keeps its fourth order, whatever
the row count; doubling a count halves every step.

The system is linear, so the RK4 map over one period is the ordered
product of the per-step RK4 matrices, and that product may be grouped
freely.  The steps are cut into blocks; the RK4 recurrence runs in all
blocks and at all energies at once, starting from the identity, and the
block matrices are then multiplied by a pairwise tree reduction (an
associative scan).  The Python loop runs over one block instead of one
period.  One grid of potential samples is shared by every energy.

One RK4 step is I + D, where D is a polynomial in E whose coefficients
depend only on the step's h and its samples of m+S at x, x+h/2 and x+h:
the diagonal entries are c0 + c2 E^2 + c4 E^4, the off-diagonal ones
E (c1 + c3 E^2).  This is the same four-stage map, regrouped exactly
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1).  The oracle
writes each step in the frame T^-1 M T with T = diag(1, E), where all
four entries are polynomials in t = E^2: E D12 = t (c1 + c3 t) and
D21 / E = c1 + c3 t.  Products of such maps keep the form and multiply
there by the plain 2x2 rule: over k steps every entry has 2k+1
coefficients, entry 12's first and entry 21's last zero.  So runs of up
to eight steps are composed once per call, on the coefficients and
before any energy is seen, into one fused step, and one matrix product
of a fused step's coefficient rows in every block with the powers of
E^2 gives P(E); X <- (X + P) + P X costs five array operations on the
stacked 2x2 entries.  The diagonal entries are even in E and the
off-diagonal ones odd, so M(-E) = sigma_z M(|E|) sigma_z holds exactly
and only the distinct |E| are integrated.
"""
from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

from .errors import StepCountTooSmall

#: the first step count of the doubling is a multiple of this: the
#: smallest DEFAULT_STEPS * 2**k with h * omega <= FIRST_STEP_SCALE
DEFAULT_STEPS = 250
#: h * omega at the first count, omega = max(max |E|, max |m + S|): with
#: it 959 of the 1,024 ``bands --verify`` calls and 942 of the 1,024
#: ``verify`` oracle calls of bench seeds 1-16 stop after two passes
FIRST_STEP_SCALE = 0.025
#: doubling stops once |D_N - D_2N| / max(1, |D_2N|) is at most this at
#: every energy of the call
ERROR_TARGET = 1e-7
#: ... or when doubling again would pass this count; D at the last count
#: is then returned as it is, without an error
MAX_STEPS = 32000
DET_DRIFT_LIMIT = 1e-6

#: blocks x energies integrated side by side; sets the block length.  In
#: alternating runs of ``bench/run.py --workload oracle --seed 1 --seconds
#: 45`` on a 2 vCPU Xeon, four of each, the oracle unit took 0.89 of the
#: time it took before the workspace (``_work``) at 2**12, 0.92 at 2**11
#: and 0.93 at 2**13
_BLOCK_ELEMENTS = 2**12
#: most RK4 steps composed into one fused step, a power of two; in three
#: more such runs at 2**12 blocks, 16 took 1.08 and 4 1.10 of the time of
#: 8.  Below 64 distinct |E| fewer steps are fused (see _propagate):
#: there the composition costs more than it saves
_FUSED = 8


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


#: this thread's work arrays, by name (``_work``)
_workspace = threading.local()


def _work(name: str, shape: tuple) -> np.ndarray:
    """A float array of ``shape`` from this thread's workspace, not
    initialised: the caller writes all of it before reading it.

    Each name keeps one flat buffer that only grows, for the life of the
    thread, so every pass writes into memory that is already mapped:
    arrays freed after each pass go back to the system between the
    passes of an oracle unit (glibc trims the top of its heap) and
    page-fault again on the next.  No value is ever read from one call
    by another.  The workspace holds its largest arrays until the thread
    ends: about 2.5 MB after the first four oracle units of bench seeds
    1-3, 12 MB after all 64, 15 MB after passes of 32,000 steps at 40
    energies.
    """
    size = math.prod(shape)
    buffer = getattr(_workspace, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size)
        setattr(_workspace, name, buffer)
    return buffer[:size].reshape(shape)


def _add_product(out, p, q):
    """out += p(t) q(t), for polynomials in t whose coefficients, from t^0
    up, run along axis 1; out holds at least the product's coefficients."""
    n = q.shape[1]
    term = _work("term", q.shape)
    for i in range(p.shape[1]):
        np.multiply(p[:, i:i + 1], q, out=term)
        out[:, i:i + n] += term


def _fuse_pairs(f):
    """Compose step maps pairwise: positions 2i (first, A) and 2i+1
    (second, B) along axis 3 of f, shaped (2, 2, L, positions, groups),
    become one map I + P with P = A + B + BA, shaped
    (2, 2, 2L-1, positions/2, groups).

    Axes 0 and 1 hold row and column in the frame T^-1 P T, where every
    entry is a polynomial in t = E^2 along axis 2; entry 12 is t times a
    polynomial, so its first coefficient is zero, and entry 21's last is.
    Row i of BA is B_ii A_i + B_ik A_k, with A_i the rows of A, and the
    off-diagonal factor B_ik enters without its zero coefficient.
    """
    a, b = f[:, :, :, 0::2], f[:, :, :, 1::2]
    n = f.shape[2]
    fused = _work(f"fused{n}", (2, 2, 2 * n - 1) + a.shape[3:])
    np.add(a, b, out=fused[:, :, :n])
    fused[:, :, n:] = 0.0
    _add_product(fused[0], b[0, :1], a[0])
    _add_product(fused[0, :, 1:], b[0, 1:, 1:], a[1])
    _add_product(fused[1], b[1, 1:], a[1])
    _add_product(fused[1], b[1, :1, :-1], a[0])
    return fused


def _breakpoints(a: float, knots) -> np.ndarray:
    """-a, the knots inside (-a, a) and a: the ends of the intervals that
    the steps cut."""
    if knots is None:
        return np.array([-a, a])
    knots = np.unique(np.asarray(knots, dtype=float))
    return np.concatenate(([-a], knots[(knots > -a) & (knots < a)], [a]))


def _nodes(edges: np.ndarray, substeps: int) -> np.ndarray:
    """Step nodes: ``substeps`` equal steps in each interval of ``edges``."""
    h = np.diff(edges) / substeps
    xs = edges[:-1, None] + h[:, None] * np.arange(substeps)
    return np.append(xs.ravel(), edges[-1])


def _propagate(potential: Callable, m: float, energies, xs: np.ndarray):
    """RK4 for the fundamental matrix from ``xs[0]`` to ``xs[-1]``, one step
    between consecutive nodes, all energies at once.

    The steps are cut into groups of ``fused`` steps (``_FUSED`` from 64
    distinct |E| up, fewer below), and the groups into ``n_blocks`` blocks
    of ``n_fused``; the steps past the grid's end get coefficients that
    are all zero, so they map to the identity exactly.
    Each step's coefficients are written in the frame T^-1 M T,
    T = diag(1, E), where all four entries are polynomials in E^2 of one
    length, stacked (row, column) like X.  The steps of each group are
    composed there once per call, before any energy is seen, into one
    fused step I + P (``_fuse_pairs``), so the coefficient rows of one
    fused step in every block, (entries x blocks, powers), take one
    matrix product with the powers of E^2, (powers, distinct |E|), and
    give P straight in the (blocks, energies) layout of X.
    X <- (X + P) + P X is accumulated in every block at once, from X = 0;
    ``_ordered_product`` then multiplies the block matrices.
    A block matrix is I + X with X small, so X is carried: rounding 1 + X
    would lose X's low digits in every block alike, and the errors would
    add up over the blocks instead of averaging out.

    The work arrays come from this thread's workspace (``_work``), taken
    after ``potential`` is evaluated, so a potential that calls the oracle
    itself cannot overwrite them.

    Each distinct |E| is integrated once; M(-E) = sigma_z M(|E|) sigma_z
    is exact, and a repeated call returns the same bits, whatever ran
    before it.  The BLAS picks its kernel by the shape of the product
    and the place of a column in it, so an energy's last bits may move
    with the number and values of the other energies of the call (within
    1e-14 of max(1, |D|) in the tests).

    Returns the four matrix entries as arrays shaped like ``energies``.
    """
    energies = np.asarray(energies, dtype=float)
    h = np.diff(xs)
    steps = h.size
    s_node = m + potential(xs)
    s_half = m + potential(xs[:-1] + 0.5 * h)

    e, back = np.unique(np.abs(energies).ravel(), return_inverse=True)
    # composing costs about the same per step at any energy count, and
    # each doubling of ``fused`` saves a few operations per step and
    # energy: the largest power of two at most an eighth of the distinct |E|
    fused = min(_FUSED, 1 << max(0, (e.size // 8).bit_length() - 1))
    groups = -(-steps // fused)
    n_blocks = max(1, min(_BLOCK_ELEMENTS // max(e.size, 1), groups))
    n_fused = -(-groups // n_blocks)
    n_blocks = -(-groups // n_fused)

    # 24 times one step's coefficients in the frame T^-1 P T, (row,
    # column): c0, c2, c4 on the diagonal, 0, c1, c3 in entry 12 (E P12)
    # and c1, c3, 0 in entry 21 (P21 / E); module docstring
    s0, sm, s1 = s_node[:-1], s_half, s_node[1:]
    h2 = h * h
    p, q, eta, delta = h * (s0 + s1), h2 * s0 * s1, h * sm, h * (s0 - s1)
    mu = eta * eta
    even, odd = q * mu + 4.0 * eta * p + 4.0 * mu, 2.0 * p * mu + 4.0 * p + 16.0 * eta
    by_step = _work("by_step", (2, 2, 3, n_blocks * n_fused * fused))
    # zero where nothing is written below: the padded steps, and the
    # structural zeros of the off-diagonal entries
    by_step[:, :, :, steps:] = 0.0
    by_step[0, 1, 0] = by_step[1, 0, 2] = 0.0
    by_step[0, 0, :, :steps] = even + odd, -h2 * (q + mu + 12.0 + 2.0 * p), h2 * h2
    by_step[1, 1, :, :steps] = even - odd, -h2 * (q + mu + 12.0 - 2.0 * p), h2 * h2
    by_step[0, 1, 1:, :steps] = h * (delta * mu + 4.0 * delta - 4.0 * mu - 24.0), -h2 * h * (delta - 4.0)
    by_step[1, 0, :2, :steps] = h * (delta * mu + 4.0 * delta + 4.0 * mu + 24.0), -h2 * h * (delta + 4.0)
    by_step /= 24.0
    # (row, column, coefficient, position in group, group), groups block-major
    f = _work("by_group", (2, 2, 3, fused, by_step.shape[3] // fused))
    np.copyto(f, by_step.reshape(2, 2, 3, -1, fused).transpose(0, 1, 2, 4, 3))
    while f.shape[3] > 1:
        f = _fuse_pairs(f)
    n_powers = 2 * fused + 1
    # (fused step, row, column, block, power)
    coefficients = _work("coefficients", (n_fused, 2, 2, n_blocks, n_powers))
    np.copyto(coefficients, f.reshape(2, 2, n_powers, n_blocks, n_fused).transpose(4, 0, 1, 3, 2))
    powers = (e * e) ** np.arange(n_powers)[:, None]

    x = _work("x", (2, 2, n_blocks, e.size))
    x.fill(0.0)
    step = _work("step", x.shape)
    px, term = _work("px", (2,) + x.shape)
    for rows in coefficients.reshape(n_fused, -1, n_powers):
        # (entries x blocks, powers) @ (powers, energies)
        np.matmul(rows, powers, out=step.reshape(len(rows), e.size))
        # X <- (X + P) + P X, (PX)ij = Pi1 X1j + Pi2 X2j
        np.multiply(step[:, :1], x[:1], out=px)
        np.multiply(step[:, 1:], x[1:], out=term)
        px += term
        x += step
        x += px
    (x11, x12), (x21, x22) = _ordered_product(x)
    # back from T^-1 X T, whose X12 is E X12: at E = 0 it is exactly 0,
    # and so is X12
    x12 = np.divide(x12, e, out=np.zeros_like(x12), where=e > 0.0)
    x21 = x21 * e
    x11, x12, x21, x22 = (x[back].reshape(energies.shape) for x in (x11, x12, x21, x22))
    sign = np.where(energies < 0, -1.0, 1.0)
    return 1.0 + x11, sign * x12, sign * x21, 1.0 + x22


def _ordered_product(x):
    """X with I + X = (I + X[n-1]) ... (I + X[1]) (I + X[0]), for
    deviations from the identity stacked along axis 2 of ``x``, shaped
    (2, 2, n, ...) like the matrices.

    Pairs are reduced level by level, (I + B)(I + A) = I + (A + B + BA);
    an odd last matrix is carried up one level.
    """
    while x.shape[2] > 1:
        n = x.shape[2] // 2 * 2
        a, b = x[:, :, 0:n:2], x[:, :, 1:n:2]
        # (BA)ij = Bi1 A1j + Bi2 A2j
        pairs = a + b + (b[:, :1] * a[:1] + b[:, 1:] * a[1:])
        x = np.concatenate((pairs, x[:, :, n:]), axis=2) if n < x.shape[2] else pairs
    return x[:, :, 0]


def first_steps(potential: Callable, m: float, energies, a: float, knots=None) -> int:
    """The first step count ``lyapunov_numeric_many`` takes when it is
    given none: the smallest count, on the knots and at least
    DEFAULT_STEPS, whose longest step h has h * omega <= FIRST_STEP_SCALE,
    omega = max(max |E|, max |m + S|), within MAX_STEPS.

    With n intervals between knots each takes ceil(DEFAULT_STEPS / n)
    * 2**k equal steps, so without knots the count is DEFAULT_STEPS * 2**k.
    m + S is sampled at the nodes of the smallest such count, which for a
    table linear between its knots finds its largest value exactly.
    """
    edges = _breakpoints(a, knots)
    n = edges.size - 1
    substeps = -(-DEFAULT_STEPS // n)
    omega = max(
        float(np.abs(np.asarray(energies, dtype=float)).max(initial=0.0)),
        float(np.abs(m + potential(_nodes(edges, substeps))).max()),
    )
    widest = float(np.diff(edges).max())
    # a NaN omega stops at once, an infinite one at the cap
    while widest * omega > FIRST_STEP_SCALE * substeps and 2 * n * substeps <= MAX_STEPS:
        substeps *= 2
    return n * substeps


def lyapunov_numeric_many(
    potential: Callable,
    m: float,
    energies,
    a: float,
    steps: int | None = None,
    knots=None,
) -> np.ndarray:
    """Discriminant tr M over [-a, a] at every energy; ``potential`` maps
    an x array to S(x).

    ``knots`` are the x values where ``potential`` may bend, such as the
    rows of a table it interpolates linearly: the steps then cut every
    interval between knots inside [-a, a] equally, the same number of
    steps in each.

    ``steps`` is the first step count; omitted, it follows the cell and
    the energies (``first_steps``), and given, it is rounded up to a
    multiple of the intervals between knots.  The count doubles while
    |D_N - D_2N| / max(1, |D_2N|), between the last two counts, exceeds
    ERROR_TARGET at any energy and the doubled count is within MAX_STEPS;
    every energy is integrated at every count.  Returns D at the last
    count; a first count above MAX_STEPS / 2 is the only one.

    det M is checked at every count.  Where it drifts from 1 by more than
    DET_DRIFT_LIMIT relative to max(1, max|M_ij|^2) (``det_drift``), or the
    drift is not finite, the step is too coarse for this potential and
    energy: below the cap the count doubles, and at the last count
    StepCountTooSmall is raised.
    """
    e = np.asarray(energies, dtype=float)
    if steps is None:
        steps = first_steps(potential, m, e, a, knots)
    elif steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    edges = _breakpoints(a, knots)
    n = edges.size - 1
    substeps = -(-steps // n)
    coarse = None
    # where h|E| is too large for RK4 the entries overflow to inf or NaN;
    # the drift check turns that into a refinement or StepCountTooSmall,
    # not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            last = 2 * n * substeps > MAX_STEPS
            m11, m12, m21, m22 = _propagate(potential, m, e, _nodes(edges, substeps))
            drift = det_drift(m11, m12, m21, m22)
            if drift.size and not drift.max() <= DET_DRIFT_LIMIT:  # NaN drifts too
                if last:
                    worst = e.ravel()[int(np.argmax(drift))]
                    raise StepCountTooSmall(f"det drifted by {drift.max():.2e} at E={worst} "
                                            f"with {n * substeps} steps; refine")
                coarse, substeps = None, 2 * substeps
                continue
            fine = m11 + m22
            error = np.inf if coarse is None else abs(fine - coarse) / np.maximum(1.0, abs(fine))
            if last or not np.any(error > ERROR_TARGET):
                return fine
            coarse, substeps = fine, 2 * substeps
