"""Short-run smoke test of the benchmark.

    python3 -m pytest bench/test_smoke.py -q

Runs one unit of every workload untraced, and of the sweep workload
traced, and checks that every metric named in BENCHMARK.json is printed
with its unit, that the output checks ran, that they catch wrong
artifacts, and that the host factors scale the times.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (first: puts the package sources on sys.path)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
from diracband import bands  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, monkeypatch) -> tuple[list[str], dict]:
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload, monkeypatch):
    lines, result = _run(workload, 0, monkeypatch)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    checked = next(line for line in lines if line.startswith("# outputs checked"))
    n_checked, n_ops = [int(word) for word in checked.split() if word.isdigit()][:2]
    assert n_checked >= 1 and n_ops >= result["attempted"]


def test_per_layer_metrics(monkeypatch):
    lines, result = _run("sweep", 1, monkeypatch)
    _assert_metrics(result, SPEC["per_layer"])
    assert not any("artifacts differ" in line for line in lines)


def test_checks_catch_wrong_artifacts(tmp_path):
    p = inputs.CANONICAL
    table = bands.band_edges(checks.model(p), e_max=p.e_max, tol=1e-6)
    doc = {"data": {
        "edges": [float(f"{e:.12g}") for e in table.edges],
        "bands": [{"e_lo": b.e_lo, "e_hi": b.e_hi, "kind": b.kind} for b in table.bands],
        "e_max": p.e_max, "tol": 1e-6,
    }}
    assert checks.check_band_table(p, doc) == (None, 0)
    # drop the outermost positive and negative edges: a missed gap
    doc["data"]["edges"] = doc["data"]["edges"][1:-1]
    doc["data"]["bands"] = doc["data"]["bands"][1:-1]
    assert checks.check_band_table(p, doc) == ("bands.missed-edge", 1)
    doc["data"]["edges"] = doc["data"]["edges"][1:]
    assert checks.check_band_table(p, doc)[0] == "bands.mirror"

    path = tmp_path / "dispersion.csv"
    k_edge = repr(math.pi / 2.0)
    for rows, cause in ((("0,1.0", f"{k_edge},1.2"), None), ((f"{k_edge},1.0", "0,1.2"), None),
                        (("0.1,1.0", "1.5,1.2"), "dispersion.endpoint"),
                        ((f"{k_edge},1.0", f"{k_edge},1.2"), "dispersion.endpoint"),
                        (("0,1.0", "0,1.2"), "dispersion.endpoint")):
        path.write_text("k,e\n" + "\n".join(rows) + "\n")
        assert checks.check_dispersion(p, str(path), 2, (1.0, 1.2), 1e-6) == cause, rows

    path = tmp_path / "trace.csv"
    path.write_text("e,d,regime\n-1,0.5,evanescent\n0,0.1,evanescent\n1,0.6,evanescent\n")
    profile = inputs.Profile("smooth", p, "")
    assert checks.check_tabulated(profile, str(path), 3) == "tabulated.evenness"


def test_exit_causes():
    grid = "error: interval (1, 2) contains unresolved |D|=2 structure; decrease grid_step"
    assert checks.exit_cause("bands", 2, grid) == "bands.grid-too-coarse"
    assert checks.exit_cause("bands", 1, grid) == "bands.exit1"
    assert checks.exit_cause("bands", 1, "error: --gamma must lie in (0, mass)") == "bands.exit1"
    assert checks.exit_cause("dispersion", 2, grid) == "dispersion.exit2"
    assert checks.exit_cause("tabulated", 2, "error: det drifted by 1e-3 at E=2") == "oracle.det-drift"
    assert checks.exit_cause("lyapunov", -1, "") == "lyapunov.crash"
    for cause in ("bands.exit1", "dispersion.exit2", "lyapunov.crash"):
        assert cause not in checks.KNOWN_DEFECTS


def test_verdict_limits_known_causes():
    def unit(*ops):
        return run.Unit("sweep", [run.Op(kind, 0.1, 0.1, 0, cause) for kind, cause in ops])

    ok = unit(("bands", None), ("dispersion", None))
    # the seed's rate of bands.certificate on bands calls is far below one in two
    many = [ok] + [unit(("bands", "bands.certificate")) for _ in range(200)]
    few = [ok] + [unit(("bands", "bands.certificate" if i % 20 == 0 else None)) for i in range(200)]
    assert run.verdict("sweep", few, True)[1] == []
    assert any("above its limit" in reason for reason in run.verdict("sweep", many, True)[1])
    assert run.verdict("sweep", [ok, unit(("bands", "bands.exit1"))], True)[1] == [
        "new failure cause bands.exit1"]
    canonical_fails = [unit(("bands", "bands.missed-edge"))]
    assert run.verdict("sweep", canonical_fails, True)[1] != []
    assert run.verdict("sweep", [ok], False)[1] == ["traced and untraced artifacts differ"]
    # units repeat in passes of n; a repeat must reproduce its first outcome
    bad = unit(("bands", "bands.certificate"))
    assert run.verdict("sweep", [ok, bad, ok, bad], True, 2)[1] == []
    assert run.verdict("sweep", [ok, bad, ok, ok], True, 2)[1] == [
        "a repeated unit's outcome differs from its first run"]


def test_host_factor_scales_times():
    probe = hostspeed.Probe()
    probe.burst()
    time.sleep(0.01)
    probe.burst()
    assert len(probe.samples) >= 1 and probe.factor() > 0
    units = [run.Unit("sweep", [run.Op("bands", 0.2, 0.1, 0), run.Op("dispersion", 0.2, 0.1, 0)])]
    raw = run.end_to_end(units, 1, [0.3])
    slow = run.end_to_end(units, 1, [0.3], 3.0, 2.0)
    assert slow["setup_s"][0] == pytest.approx(raw["setup_s"][0] / 3)
    assert slow["unit_s.norm"][0] == pytest.approx(raw["unit_s.norm"][0] / 2)
    assert slow["cpu_s_per_op.norm"][0] == pytest.approx(raw["cpu_s_per_op.norm"][0] / 2)
    assert slow["ops_per_s.norm"][0] == pytest.approx(raw["ops_per_s.norm"][0] * 2)


def test_pass_is_fixed_by_seed_and_seconds():
    assert run.pass_size("sweep", 0.1) == 1
    assert run.pass_size("sweep", 45) == run.pass_size("sweep", 45.0) > 100
    assert run.pass_size("oracle", 45) >= 3
