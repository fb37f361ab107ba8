import cmath
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from diracband import (
    ModelParams,
    basis_spinors,
    bound_states,
    intertwining_check,
    lyapunov_many,
    soliton_potential,
)
from diracband.bands import ZOOM_WAYS
from diracband.soliton import free_pair, w_functions
from diracband.spinor import det_drift
from diracband.verify import SEED, WRONSKIAN_ENERGIES, CheckResult

# the benchmark's modules, for tests of its inputs and of its tracer
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

FloquetPair = namedtuple("FloquetPair", "beta1 beta2")


@pytest.fixture(scope="session")
def canonical() -> ModelParams:
    """The parameter set every regression constant in the suite refers to."""
    return ModelParams.from_lambda(mass=2.0, lam=1.0, half_period=1.0)


@pytest.fixture(scope="session")
def steep() -> ModelParams:
    """Alternative nodeless seed parameters (gamma given directly)."""
    return ModelParams(mass=2.0, gamma=1.0, half_period=1.0)


def floquet_multipliers(discriminant: float) -> FloquetPair:
    """The two Bloch multipliers: both roots of beta^2 - D*beta + 1 = 0.

    |D| <= 2 puts the pair on the unit circle; |D| > 2 gives a real,
    reciprocal pair.  beta1*beta2 = 1 and beta1+beta2 = D always.
    """
    if not math.isfinite(discriminant):
        raise ValueError("discriminant must be finite")
    root = cmath.sqrt(complex(discriminant * discriminant / 4.0 - 1.0))
    return FloquetPair(discriminant / 2.0 + root, discriminant / 2.0 - root)


def free_field(mass: float, energy: float):
    """The free-particle (S = 0) solution psi(x) = (C I + S A0) (1, 0) at
    the given energy, A0 = [[m, -E], [E, -m]], as the field x -> (psi,
    A0 psi) of Darboux-mapping tests."""

    def field(x):
        c, s = free_pair(energy * energy - mass * mass, np.asarray(x, dtype=float))
        psi = np.array([c + mass * s, energy * s])
        return psi, np.array([mass * psi[0] - energy * psi[1], energy * psi[0] - mass * psi[1]])

    return field


def fundamental_matrix(params: ModelParams, energy: float, x) -> np.ndarray:
    """U(x; E) from the columns basis_spinors returns, shaped (2, 2) + shape(x)."""
    return np.stack(basis_spinors(params, energy, x), axis=1)


def count_crossings(d_values: np.ndarray, level: float = 2.0) -> int:
    """Sign changes of |D| - level along consecutive samples."""
    s = np.sign(np.abs(np.asarray(d_values)) - level)
    return int(np.sum(s[:-1] * s[1:] < 0))


def crossing_brackets(params: ModelParams, e_max: float, step: float) -> list[tuple[float, float, float]]:
    """Brute-force band edges: (lo, hi, line) for every sign change of
    D - 2 and of D + 2 between neighbours of a uniform grid on [0, e_max].

    The two lines are scanned separately because a band narrower than the
    step carries both crossings in one cell, where |D| - 2 keeps its sign.
    A gap narrower than the step can still fall between two samples.
    """
    xs = np.linspace(0.0, e_max, int(np.ceil(e_max / step)) + 1)
    chunk = 1 << 18
    ds = np.concatenate([lyapunov_many(params, xs[i:i + chunk]) for i in range(0, xs.size, chunk)])
    out = []
    for line in (2.0, -2.0):
        above = ds > line
        k = np.nonzero(above[:-1] != above[1:])[0]
        out.extend((float(xs[j]), float(xs[j + 1]), line) for j in k)
    return sorted(out)


def reference_lyapunov_many(params: ModelParams, energies) -> np.ndarray:
    """The discriminant as written before its per-call costs were cut: one
    where= division for the tail and numpy-scalar constants.  The library's
    lyapunov_many must return the same bits."""
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


def reference_refine(params: ModelParams, lo, hi, dlo, dhi):
    """The edge zoom's bracket split as written before it filled its arrays
    in place, on reference_lyapunov_many."""
    inner = lo[:, None] + (hi - lo)[:, None] * (np.arange(1, ZOOM_WAYS) / ZOOM_WAYS)
    d_inner = reference_lyapunov_many(params, inner.ravel()).reshape(inner.shape)
    return np.column_stack([lo, inner, hi]), np.column_stack([dlo, d_inner, dhi])


# The verify checks as written before each became one array call: one call
# per energy, per solution or per field.  The library's checks must return
# equal CheckResults, residual bits included.


def reference_wronskian_unity(params: ModelParams) -> CheckResult:
    xs = np.linspace(-2.2, 2.2, 20)
    drift = []
    for e in WRONSKIAN_ENERGIES + (params.lam,):
        for energy in (e, -e):
            (u11, u21), (u12, u22) = basis_spinors(params, energy, xs)
            drift.append(det_drift(u11, u12, u21, u22))
    return CheckResult.from_measure(
        "wronskian-unity", float(np.max(drift)), 1e-10,
        "22x20 (E, x) grid with E = +-lam, scaled by max(1, |U|^2)",
    )


def reference_evenness(params: ModelParams) -> CheckResult:
    rng = np.random.default_rng(SEED)
    lam = params.lam
    special = [params.mass, lam, lam * (1 + 1e-6), lam * (1 - 1e-6)]
    es = np.concatenate([rng.uniform(0.05, 8.0, 50), special])
    diff = np.abs(lyapunov_many(params, es) - lyapunov_many(params, -es))
    return CheckResult.from_measure(
        "lyapunov-evenness", float(diff.max()), 1e-10, "50 random E, |E| = m and near |E| = lam"
    )


def reference_hamiltonian_residual(solution, potential, m, energy, x, h):
    """spinor.hamiltonian_residual with one solution call per row."""
    x = np.asarray(x, dtype=float)
    fp, fm, f0 = solution(x + h), solution(x - h), solution(x)
    d1 = (fp[0] - fm[0]) / (2 * h)
    d2 = (fp[1] - fm[1]) / (2 * h)
    s = m + potential(x)
    r1 = d2 + s * f0[1] - energy * f0[0]
    r2 = -d1 + s * f0[0] - energy * f0[1]
    return np.hypot(r1, r2)


def reference_solution_residuals(params: ModelParams) -> list[CheckResult]:
    pot = soliton_potential(params)
    solutions = [
        (lambda x: basis_spinors(params, 3.0, x)[0], 3.0),
        (lambda x: basis_spinors(params, 3.0, x)[1], 3.0),
        (lambda x: bound_states(params, x)[0], params.lam),
        (lambda x: bound_states(params, x)[1], -params.lam),
    ]
    xs = np.array([0.3, -0.7, 1.1])
    r1 = np.array([reference_hamiltonian_residual(f, pot, params.mass, e, xs, 1e-4) for f, e in solutions])
    r2 = np.array([reference_hamiltonian_residual(f, pot, params.mass, e, xs, 5e-5) for f, e in solutions])
    ratios = r1[r2 > 0] / r2[r2 > 0]
    off = np.max(np.abs(ratios - 4.0))
    return [
        CheckResult.from_measure("dirac-residual", np.max(r1), 1e-6, "basis + bound states, h=1e-4"),
        CheckResult.from_measure(
            "residual-order", off, 0.5, f"h -> h/2 ratios within {ratios.min():.3f}..{ratios.max():.3f}"
        ),
    ]


def random_smooth_field(seed: int):
    """A finite Fourier sum as the field x -> (psi, psi'); not a solution."""
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.3, 2.5, 3)
    ca = rng.normal(size=(2, 3))
    cb = rng.normal(size=(2, 3))

    def field(x):
        k = freqs.reshape((3,) + (1,) * np.ndim(x))
        c, s = np.cos(k * x), np.sin(k * x)
        return (
            np.tensordot(ca, c, axes=1) + np.tensordot(cb, s, axes=1),
            np.tensordot(cb, k * c, axes=1) - np.tensordot(ca, k * s, axes=1),
        )

    return field


def reference_intertwining(params: ModelParams) -> CheckResult:
    xs = np.array([0.12, -0.8, 1.4])
    worst = max(
        np.max(intertwining_check(params, random_smooth_field(i), xs, h=1e-4)) for i in range(10)
    )
    return CheckResult.from_measure("intertwining", worst, 1e-5, "10 random smooth fields")
