"""Output checks for every CLI invocation the benchmark makes.

Each check returns ``None`` when the artifact is right, or a short cause
label when it is not; ``exit_cause`` labels a nonzero exit.  A cause in
``KNOWN_DEFECTS`` is a failure the program already had when the benchmark
was defined; it is counted in ``failed`` like any other, and clears the
run's ``correct`` flag only when it fails well more operations than it did
then (``rate_limit``).  A cause outside that set always clears it, because
it is a new kind of wrong output.

The checks evaluate the program's closed form through ``bands`` and run
outside the timed region, with tracing paused.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

from diracband import bands, soliton

#: failure causes present at the commit that defined the benchmark; see
#: bench/baseline.json for the measured rates and the code responsible
KNOWN_DEFECTS = frozenset({
    # band_edges: misses narrow gaps; returns a bisection midpoint it never
    # tested, which misses |D| = 2 on steep edges; raises GridTooCoarse
    "bands.missed-edge",
    "bands.certificate",
    "bands.grid-too-coarse",
    # dispersion: _polish_edge walks to another band's edge, so the call
    # raises NotAllowedBand or samples the wrong band
    "dispersion.not-allowed-band",
    "dispersion.endpoint",
    # large |M| at evanescent energies: the oracle's |det M - 1| check
    # fires (StepCountTooSmall), and tr M misses the closed form by more
    # than the absolute limit 1e-6
    "oracle.det-drift",
    "bands-verify.residual",
    "verify.oracle-equivalence",
    # verify checks whose energies and thresholds were set on the
    # canonical set, and its band-table check (band_edges, above)
    "verify.wronskian-unity",
    "verify.residual-order",
    "verify.dirac-residual",
    "verify.band-table-structure",
    # the closed form loses about 6 digits at the removable pole |E| = lambda
    "verify.lyapunov-evenness",
})

#: the known defects that make the CLI exit with code 2: the operations
#: they hit, the text their exception prints, and their cause label.  Any
#: other nonzero exit, exit 1 (validation) included, is a new cause.
KNOWN_EXITS = (
    (("verify", "bands-verify", "tabulated"), "det drifted by", "oracle.det-drift"),  # StepCountTooSmall
    (("bands", "bands-verify"), "decrease grid_step", "bands.grid-too-coarse"),  # GridTooCoarse
    (("dispersion",), "not an allowed band", "dispersion.not-allowed-band"),  # NotAllowedBand
)

#: a known cause fails the run when its count over ``n`` operations of one
#: kind exceeds ``RATE_SLACK * n * p + RATE_SIGMAS * sqrt(n p (1 - p)) + 2``,
#: where ``p`` is its rate on that kind in bench/baseline.json
RATE_SLACK = 1.5
RATE_SIGMAS = 3.0


def exit_cause(kind: str, code: int, stderr: str) -> str:
    """The cause label of an operation that exited with ``code``."""
    if code == 2:
        for kinds, text, cause in KNOWN_EXITS:
            if kind in kinds and text in stderr:
                return cause
    return f"{kind}.exit{code}" if code > 0 else f"{kind}.crash"


def rate_limit(n: int, p: float) -> float:
    """The most operations of ``n`` that a known cause of seed rate ``p``
    may fail before the run counts as wrong."""
    return RATE_SLACK * n * p + RATE_SIGMAS * math.sqrt(n * p * (1.0 - p)) + 2.0


#: dense reference scan for missed edges.  D is monotone on every band
#: and has one critical point per gap, so a narrow gap (or a narrow band)
#: sits at an extremum of D where |D| is near 2.  The coarse pass brackets
#: every plain crossing; the fine pass, at a step of the table tolerance,
#: covers the coarse cells on either side of each such extremum, so every
#: gap wider than the tolerance holds a sample.
COARSE_STEP = 1e-3
NEAR_TWO = 0.5
#: |D| - 2 closer to zero than this is rounding, not a side of a crossing
NOISE_FLOOR = 1e-12

#: |D_tabulated - D_closed| budget for the 401-point soliton table of the
#: canonical set: linear interpolation error, measured at 2.7e-5
SOLITON_TABLE_BUDGET = 1e-4

#: |D(E) - D(-E)| limit on a tabulated trace, as a share of max(1, |D|)
#: because the artifact keeps 12 significant digits (measured: 1e-14)
EVEN_TOL = 1e-10
#: per-edge closed-form vs oracle residual limit for `bands --verify`
RESIDUAL_LIMIT = 1e-6


def model(p) -> soliton.ModelParams:
    return soliton.ModelParams(p.mass, p.gamma, p.half_period)


def _rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_potential(p, path: str, samples: int) -> str | None:
    header, rows = _rows(path)
    if header != ["x", "s1"] or len(rows) != samples:
        return "potential.shape"
    x = np.array([float(r[0]) for r in rows])
    s = np.array([float(r[1]) for r in rows])
    a, g = p.half_period, p.gamma
    folded = x - 2 * a * np.floor((x + a) / (2 * a))
    want = -2.0 * g * g / (p.mass + p.lam * np.cosh(2.0 * g * folded))
    if np.max(np.abs(s - want)) > 1e-9 * max(1.0, float(np.max(np.abs(want)))):
        return "potential.values"
    return None


def check_trace(p, path: str, samples: int) -> str | None:
    header, rows = _rows(path)
    if header != ["e", "d", "regime"] or len(rows) != samples:
        return "lyapunov.shape"
    for e, d, regime in rows:
        e = float(e)
        if not math.isfinite(float(d)):
            return "lyapunov.values"
        want = "propagating" if abs(e) > p.mass else "evanescent"
        # the 12-digit artifact may round an energy across |E| = m
        if regime not in (want, "limit") and abs(abs(e) - p.mass) > 1e-9 * p.mass:
            return "lyapunov.regime"
    return None


def reference_edges(params: soliton.ModelParams, e_max: float, step: float) -> np.ndarray:
    """Brackets [lo, hi] of every sign change of |D| - 2 on (0, e_max]."""
    n = int(math.ceil(e_max / COARSE_STEP))
    coarse = np.linspace(0.0, e_max, n + 1)
    d = bands.lyapunov_many(params, coarse)
    # E = 0 is always a critical point: D is even
    extremum = np.concatenate([[True], (d[1:-1] - d[:-2]) * (d[2:] - d[1:-1]) <= 0, [False]])
    at = np.nonzero(extremum & (np.abs(np.abs(d) - 2.0) < NEAR_TWO))[0]
    cells = np.unique(np.clip(np.concatenate([at - 1, at]), 0, n - 1))
    per_cell = int(math.ceil((e_max / n) / step))
    fine = (coarse[cells, None] + (coarse[cells + 1] - coarse[cells])[:, None]
            * (np.arange(1, per_cell) / per_cell)).ravel()
    xs = np.concatenate([coarse, fine])
    fs = np.abs(np.concatenate([d, bands.lyapunov_many(params, fine)])) - 2.0
    order = np.argsort(xs, kind="stable")
    xs, fs = xs[order], fs[order]
    keep = np.abs(fs) > NOISE_FLOOR
    xs, fs = xs[keep], fs[keep]
    hit = np.nonzero((np.sign(fs[:-1]) != np.sign(fs[1:])) & (xs[1:] > 0))[0]
    return np.stack([xs[hit], xs[hit + 1]], axis=1)


def check_band_table(p, doc: dict) -> tuple[str | None, int]:
    """Edge certificate, mirror symmetry and missed edges; returns the
    cause and the number of edges the dense scan finds that the table lacks."""
    data = doc["data"]
    params = model(p)
    edges = np.array(data["edges"], dtype=float)
    tol = float(data["tol"])
    if list(edges) != sorted(-edges):
        return "bands.mirror", 0
    table = [(b["e_lo"], b["e_hi"], b["kind"]) for b in data["bands"]]
    if sorted(table) != sorted((-hi, -lo, kind) for lo, hi, kind in table):
        return "bands.mirror", 0
    if edges.size:
        cert = np.max(np.abs(np.abs(bands.lyapunov_many(params, edges)) - 2.0))
        if cert > 10 * tol:
            return "bands.certificate", 0
    ref = reference_edges(params, float(data["e_max"]), tol)
    pos = edges[edges > 0]
    slack = 10 * tol
    missed = sum(
        1 for lo, hi in ref if not np.any((pos >= lo - slack) & (pos <= hi + slack))
    )
    return ("bands.missed-edge" if missed else None), missed


def complete_positive_bands(doc: dict) -> list[tuple[float, float]]:
    """Allowed bands with e_lo >= 0 that end below e_max, in the order the
    `dispersion` subcommand indexes them."""
    data = doc["data"]
    allowed = [b for b in data["bands"] if b["kind"] == "allowed" and b["e_lo"] >= 0]
    return [(b["e_lo"], b["e_hi"]) for b in allowed if b["e_hi"] < data["e_max"]]


def check_dispersion(p, path: str, samples: int, band: tuple[float, float], tol: float) -> str | None:
    header, rows = _rows(path)
    if header != ["k", "e"] or len(rows) != samples:
        return "dispersion.shape"
    k_edge = math.pi / (2.0 * p.half_period)
    (k_first, e_first), (k_last, e_last) = [(float(k), float(e)) for k, e in (rows[0], rows[-1])]
    # an allowed band runs from K = 0 to K = pi/(2a), in either order
    k_lo, k_hi = sorted((k_first, k_last))
    if abs(k_lo) > 1e-9 or abs(k_hi - k_edge) > 1e-9:
        return "dispersion.endpoint"
    if abs(e_first - band[0]) > 10 * tol or abs(e_last - band[1]) > 10 * tol:
        return "dispersion.endpoint"
    return None


def check_verified_table(p, doc: dict) -> tuple[str | None, int]:
    cause, missed = check_band_table(p, doc)
    if cause is not None and cause != "bands.missed-edge":
        return cause, missed
    rows = doc["data"].get("verification")
    if rows is None or len(rows) != len(doc["data"]["edges"]):
        return "bands-verify.shape", missed
    if any(r["residual"] >= RESIDUAL_LIMIT for r in rows):
        return "bands-verify.residual", missed
    return cause, missed


def check_verify_report(doc: dict, exit_code: int) -> str | None:
    results = doc["data"]["checks"]
    for c in results:
        if c["passed"] != (c["residual"] < c["threshold"]):
            return "verify.report"
    failed = sorted(c["name"] for c in results if not c["passed"])
    if bool(failed) != (exit_code == 3) or doc["data"]["passed"] == bool(failed):
        return "verify.report"
    # name a new kind of failure before a known one
    causes = sorted(("verify." + name for name in failed), key=lambda c: c in KNOWN_DEFECTS)
    return causes[0] if causes else None


def check_tabulated(profile, path: str, samples: int) -> str | None:
    header, rows = _rows(path)
    if header != ["e", "d", "regime"] or len(rows) != samples:
        return "tabulated.shape"
    es = np.array([float(r[0]) for r in rows])
    ds = np.array([float(r[1]) for r in rows])
    scale = np.maximum(1.0, np.abs(ds))
    if not np.all(np.isfinite(ds)) or np.max(np.abs(ds - ds[::-1]) / scale) > EVEN_TOL:
        return "tabulated.evenness"
    if profile.kind == "soliton":
        closed = bands.lyapunov_many(model(profile.params), es)
        if np.max(np.abs(ds - closed)) > SOLITON_TABLE_BUDGET:
            return "tabulated.closed-form"
    return None


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
