"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one 'criterion-N PASS/FAIL' line (visible with -s or in
the captured output); assertions carry the same measurements.
"""
import math
import time

import pytest

from conftest import count_crossings
from diracband import ModelParams, band_edges, cli, dispersion, lyapunov_trace
from diracband.bands import energy_grid
from diracband.verify import (
    REFERENCE_EDGES,
    check_darboux_consistency,
    check_evenness,
    check_intertwining,
    check_oracle_equivalence,
    check_solution_residuals,
    check_wronskian_unity,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"criterion-{criterion}: {'PASS' if passed else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def table(canonical):
    start = time.perf_counter()
    result = band_edges(canonical, e_max=7.0, tol=1e-6)
    result_elapsed = time.perf_counter() - start
    return result, result_elapsed


def test_criterion_1_band_edge_regression(canonical, table):
    bands_table, elapsed = table
    pos = bands_table.positive_edges
    assert len(pos) >= len(REFERENCE_EDGES)
    worst = max(abs(e - r) for e, r in zip(pos, REFERENCE_EDGES))
    mirrors = tuple(sorted(-e for e in bands_table.edges if e < 0)) == pos
    ok = worst < 2e-3 and mirrors and elapsed < 5.0
    report("1", ok, f"max edge deviation {worst:.2e} (tol 2e-3), "
                    f"mirrors exact: {mirrors}, runtime {elapsed:.2f} s")
    assert worst < 2e-3
    assert mirrors
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence(canonical):
    start = time.perf_counter()
    result = check_oracle_equivalence(canonical)
    elapsed = time.perf_counter() - start
    report("2", result.passed and elapsed < 10.0,
           f"max |closed - oracle| / max(1, |D|) = {result.residual:.2e} (tol 1e-6), "
           f"runtime {elapsed:.2f} s")
    assert result.residual < 1e-6
    assert elapsed < 10.0


def test_criterion_3_wronskian_unity(canonical):
    result = check_wronskian_unity(canonical)
    report("3", result.passed, f"max |det U - 1| / max(1, |U|^2) = {result.residual:.2e} (tol 1e-10) on 22x20 grid")
    assert result.residual < 1e-10


def test_criterion_4_evenness(canonical):
    result = check_evenness(canonical)
    report("4", result.passed, f"max |D(E) - D(-E)| = {result.residual:.2e} (tol 1e-10), {result.detail}")
    assert result.residual < 1e-10


def test_criterion_5_solution_residuals(canonical):
    residual, order = check_solution_residuals(canonical)
    ok = residual.passed and order.passed
    report("5", ok, f"max residual {residual.residual:.2e} (tol 1e-6) at h=1e-4; {order.detail}")
    assert residual.residual < 1e-6
    assert order.passed  # every ratio within 3.5 .. 4.5


def test_criterion_6_intertwining(canonical):
    result = check_intertwining(canonical)
    report("6", result.passed, f"max residual {result.residual:.2e} (tol 1e-5), 10 random fields")
    assert result.residual < 1e-5


def test_criterion_7_darboux_consistency(canonical):
    result = check_darboux_consistency(canonical)
    report("7", result.passed, f"max |generic - closed| = {result.residual:.2e} (tol 1e-12), 50 points")
    assert result.residual < 1e-12


def test_criterion_8_dispersion_reconstruction(canonical, table, tmp_path):
    bands_table, _ = table
    lowest = bands_table.allowed_bands(positive_only=True)[0]
    assert lowest.e_lo == pytest.approx(0.738, abs=2e-3)
    assert lowest.e_hi == pytest.approx(1.381, abs=2e-3)
    _, ks = dispersion(canonical, lowest, 101)
    endpoint_err = max(abs(ks[0]), abs(ks[-1] - math.pi / 2))
    monotone = all(b > a for a, b in zip(ks[:-1], ks[1:]))

    # the gamma=1 variant of the parameter ambiguity, emitted for comparison
    out = tmp_path / "dispersion_gamma1.csv"
    code = cli.main([
        "dispersion", "--gamma", "1.0", "--band-index", "0",
        "--samples", "51", "--out", str(out),
    ])
    variant_rows = out.read_text(encoding="utf-8").strip().split("\n")[1:]
    variant_ks = [float(r.split(",")[0]) for r in variant_rows]
    variant_ok = (
        code == 0
        and abs(variant_ks[0]) < 1e-9
        and abs(variant_ks[-1] - math.pi / 2) < 1e-9
        and all(b > a for a, b in zip(variant_ks[:-1], variant_ks[1:]))
    )

    ok = endpoint_err < 1e-9 and monotone and variant_ok
    report("8", ok, f"K endpoints within {endpoint_err:.1e} of {{0, pi/2}}, monotone: {monotone}, "
                    f"gamma=1 variant emitted: {variant_ok}")
    assert endpoint_err < 1e-9
    assert monotone
    assert variant_ok


def test_criterion_9_free_particle_limit():
    params = ModelParams(mass=2.0, gamma=1e-4, half_period=1.0)
    bands_table = band_edges(params, e_max=7.0, tol=1e-6)
    gaps = [b for b in bands_table.bands if b.kind == "forbidden" and b.e_lo > params.mass]
    widest = max((b.e_hi - b.e_lo for b in gaps), default=0.0)
    report("9", widest < 1e-3,
           f"{len(gaps)} gaps detected above E=m, widest {widest:.2e} (tol 1e-3)")
    assert widest < 1e-3


def test_figure_artifacts(canonical, tmp_path):
    """Potential profile and discriminant trace as plot-ready artifacts."""
    profile = tmp_path / "potential.csv"
    assert cli.main(["potential", "--samples", "601", "--out", str(profile)]) == 0
    rows = profile.read_text(encoding="utf-8").strip().split("\n")[1:]
    assert len(rows) == 601

    es = energy_grid(0.0, 7.0, 701)
    ds = lyapunov_trace(canonical, es)
    bracketed = sum(
        1 for ref in REFERENCE_EDGES
        if count_crossings(ds[(es > ref - 0.011) & (es < ref + 0.011)]) >= 1
    )
    total = count_crossings(ds)
    # the eight reference edges all appear; the full count is nine because
    # of the additional gap edge at 6.3654 (closed form and integrator agree)
    report("figures", bracketed == len(REFERENCE_EDGES) and total == 9,
           f"{bracketed}/8 reference edges crossed, total |D|=2 crossings on [0,7]: {total}")
    assert bracketed == len(REFERENCE_EDGES)
    assert total == 9
