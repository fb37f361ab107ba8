"""Self-check suite: every structural identity of the model, with
measured residuals against fixed thresholds.

Shared by the `verify` CLI subcommand and by the test suite, so a report
produced in the field runs exactly the checks the package was shipped
against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bands, darboux, monodromy, soliton

#: regression constants for mass=2, lambda=1, half-period=1
#: (three-decimal band-edge values; locations reproduced to < 5e-4)
REFERENCE_EDGES = (0.738, 1.381, 2.164, 3.274, 3.335, 4.802, 4.827, 6.352)

#: energies used for unit-Wronskian checks; both signs of each are taken,
#: spanning |E| < lam, lam < |E| < m and |E| > m for the canonical model
WRONSKIAN_ENERGIES = (0.25, 0.52, 0.79, 1.15, 1.42, 1.69, 2.3, 2.9, 3.7, 4.8)

#: seed of the random energies of the evenness and oracle checks
SEED = 20260811
#: top of the energy window of the band-table checks
E_MAX = 7.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    detail: str = ""

    @staticmethod
    def from_measure(name: str, residual: float, threshold: float, detail: str = "") -> "CheckResult":
        return CheckResult(name, float(residual), float(threshold), bool(residual < threshold), detail)


def _canonical(params: soliton.ModelParams) -> bool:
    return (
        abs(params.mass - 2.0) < 1e-12
        and abs(params.lam - 1.0) < 1e-12
        and abs(params.half_period - 1.0) < 1e-12
    )


def hamiltonian_residual(solution: Callable, potential: Callable, m: float, energy, x,
                         h: float = 1e-4):
    """Norm of (h - E) applied to the solution at each x, with a
    central-difference derivative of step h; shaped like x broadcast
    against the energy.

    The Hamiltonian h = i*sigma_y d/dx + (m + S(x))*sigma_x acts on
    two-component spinors; h psi = E psi is the first-order system

        psi1' = (m + S) psi1 - E psi2
        psi2' = E psi1 - (m + S) psi2

    that every numerical routine in this package integrates or checks
    against.  ``solution`` maps an x array to its two components, shaped
    (2,) + shape(x), and ``potential`` an x array to S(x).

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


def check_wronskian_unity(params: soliton.ModelParams) -> CheckResult:
    """det U = 1 over a 22 x 20 grid of (E, x) covering both regimes and
    E = +-lam, scaled by max(1, max|U_ij|^2), the rounding scale of a 2 x 2
    determinant (det_drift); one call, energies down and x across."""
    e = np.array(WRONSKIAN_ENERGIES + (params.lam,))
    energies = np.concatenate([e, -e])[:, None]
    (u11, u21), (u12, u22) = soliton.basis_spinors(params, energies, np.linspace(-2.2, 2.2, 20))
    return CheckResult.from_measure(
        "wronskian-unity", float(np.max(monodromy.det_drift(u11, u12, u21, u22))), 1e-10,
        "22x20 (E, x) grid with E = +-lam, scaled by max(1, |U|^2)",
    )


def check_evenness(params: soliton.ModelParams) -> CheckResult:
    """D(E) = D(-E) on random energies and at the printed formula's 0/0
    points |E| = m and |E| = lam, which random draws never land near."""
    rng = np.random.default_rng(SEED)
    lam = params.lam
    special = [params.mass, lam, lam * (1 + 1e-6), lam * (1 - 1e-6)]
    es = np.concatenate([rng.uniform(0.05, 8.0, 50), special])
    d = bands.lyapunov_many(params, np.concatenate([es, -es]))
    diff = np.abs(d[: es.size] - d[es.size:])
    return CheckResult.from_measure(
        "lyapunov-evenness", float(diff.max()), 1e-10, "50 random E, |E| = m and near |E| = lam"
    )


def check_solution_residuals(params: soliton.ModelParams) -> list[CheckResult]:
    """The columns of U at E = 3 and the bound-state spinors satisfy the
    transformed problem, with second-order convergence of the
    finite-difference residual.  The four solutions are stacked along
    axis -2 of x, one row each, so each step h is one residual call."""
    pot = soliton.soliton_potential(params)
    lam = params.lam
    energies = np.array([[3.0], [3.0], [lam], [-lam]])

    def solutions(x):
        return np.concatenate(
            [*soliton.basis_spinors(params, 3.0, x), *soliton.bound_states(params, x)], axis=-2
        )

    xs = np.array([[0.3, -0.7, 1.1]])
    r1 = hamiltonian_residual(solutions, pot, params.mass, energies, xs, h=1e-4)
    r2 = hamiltonian_residual(solutions, pot, params.mass, energies, xs, h=5e-5)
    ratios = r1[r2 > 0] / r2[r2 > 0]
    off = np.max(np.abs(ratios - 4.0))
    return [
        CheckResult.from_measure("dirac-residual", np.max(r1), 1e-6, "basis + bound states, h=1e-4"),
        CheckResult.from_measure(
            "residual-order", off, 0.5, f"h -> h/2 ratios within {ratios.min():.3f}..{ratios.max():.3f}"
        ),
    ]


def _random_smooth_fields(seeds):
    """Finite Fourier sums as fields x -> (psi, psi'), not solutions: one
    per seed, each on its own index of axis -2 of x."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = [(r.uniform(0.3, 2.5, 3), r.normal(size=(2, 3)), r.normal(size=(2, 3))) for r in rngs]
    freqs, ca, cb = (np.array(d) for d in zip(*draws))
    k = freqs[:, :, None]

    def fields(x):
        # (fields, 1, points) against (fields, 3, 1) frequencies; the
        # batched products keep the bits of one 2 x 3 product per field,
        # where np.einsum would not
        moved = np.moveaxis(x, -2, 0)
        kx = k * moved.reshape(len(draws), 1, -1)
        c, s = np.cos(kx), np.sin(kx)
        pair = (ca @ c + cb @ s, cb @ (k * c) - ca @ (k * s))
        return tuple(np.moveaxis(v.reshape((len(draws), 2) + moved.shape[1:]), 0, -2) for v in pair)

    return fields


def check_intertwining(params: soliton.ModelParams) -> CheckResult:
    """(L h0 - h1 L) psi = 0 for 10 random smooth fields, one row of x each,
    in one call."""
    xs = np.tile([0.12, -0.8, 1.4], (10, 1))
    worst = np.max(darboux.intertwining_check(params, _random_smooth_fields(range(10)), xs, h=1e-4))
    return CheckResult.from_measure("intertwining", worst, 1e-5, "10 random smooth fields")


def check_darboux_consistency(params: soliton.ModelParams) -> CheckResult:
    xs = np.linspace(-2.5, 2.5, 50)
    worst = np.max(np.abs(darboux.transformed_potential(params, xs) - soliton.potential_s1(params, xs)))
    return CheckResult.from_measure("darboux-consistency", worst, 1e-12, "50 sample points")


def check_oracle_equivalence(params: soliton.ModelParams) -> CheckResult:
    """Closed form against the RK4 monodromy trace on 40 random energies,
    relative to max(1, |D|): at strongly evanescent energies |D| reaches
    1e9, and the rounding of the trace there is not step error.  The
    oracle's first step count follows the cell and the energies
    (``monodromy.first_steps``), and the oracle doubles it."""
    rng = np.random.default_rng(SEED)
    m = params.mass
    es = []
    while len(es) < 40:
        e = float(rng.uniform(-8.0, 8.0))
        if abs(e - m) >= 0.05 and abs(e + m) >= 0.05:
            es.append(e)
    es = np.array(es)
    closed = bands.lyapunov_many(params, es)
    pot = soliton.periodized_potential(params)
    steps = monodromy.first_steps(pot, m, es, params.half_period)
    numeric = monodromy.lyapunov_numeric_many(pot, m, es, params.half_period, steps)
    worst = float((np.abs(closed - numeric) / np.maximum(1.0, np.abs(closed))).max())
    return CheckResult.from_measure(
        "oracle-equivalence", worst, 1e-6,
        f"40 random E, RK4 steps doubled from {steps} until |D_N - D_2N| <= "
        f"{monodromy.ERROR_TARGET:g} max(1, |D|) or {monodromy.MAX_STEPS} steps",
    )


def check_band_edge_regression(params: soliton.ModelParams, table: bands.BandTable) -> CheckResult:
    """Lowest positive edges of the band table to E_MAX against the
    reference three-decimal values.

    Only meaningful for the canonical parameter set; other parameter
    choices get the structural checks instead.
    """
    pos = table.positive_edges
    if len(pos) < len(REFERENCE_EDGES):
        return CheckResult(
            "band-edge-regression", math.inf, 2e-3, False,
            f"found only {len(pos)} positive edges",
        )
    worst = max(abs(e - r) for e, r in zip(pos[: len(REFERENCE_EDGES)], REFERENCE_EDGES))
    neg_mirrored = tuple(sorted(-e for e in table.edges if e < 0))
    mirrored_ok = neg_mirrored == pos
    detail = f"max deviation of the {len(REFERENCE_EDGES)} lowest edges: {worst:.2e}"
    if not mirrored_ok:
        return CheckResult("band-edge-regression", worst, 2e-3, False, detail + "; mirror broken")
    return CheckResult.from_measure("band-edge-regression", worst, 2e-3, detail)


def check_band_structure(params: soliton.ModelParams, table: bands.BandTable) -> CheckResult:
    """Structural sanity of the band table to E_MAX: edge certificates
    and alternation."""
    d = bands.lyapunov_many(params, np.array(table.edges))
    cert = float(np.max(np.abs(np.abs(d) - 2.0), initial=0.0))
    kinds = [b.kind for b in table.bands]
    alternates = all(k1 != k2 for k1, k2 in zip(kinds[:-1], kinds[1:]))
    res = CheckResult.from_measure("band-table-structure", cert, 10 * table.tol, f"{len(table.edges)} edges")
    if not alternates:
        res = CheckResult(res.name, res.residual, res.threshold, False, "bands do not alternate")
    return res


def run_verification(params: soliton.ModelParams) -> list[CheckResult]:
    results = [
        check_wronskian_unity(params),
        check_evenness(params),
        *check_solution_residuals(params),
        check_intertwining(params),
        check_darboux_consistency(params),
        check_oracle_equivalence(params),
    ]
    table = bands.band_edges(params, e_max=E_MAX)
    results.append(check_band_structure(params, table))
    if _canonical(params):
        results.append(check_band_edge_regression(params, table))
    return results


def report_dict(params: soliton.ModelParams, results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "name": r.name,
                "residual": r.residual if math.isfinite(r.residual) else 1e300,
                "threshold": r.threshold,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
