#!/usr/bin/env python3
"""Per-layer timings that mirror the ROADMAP baseline table.

    python3 bench/layers.py > layers.json

Each entry is the best of three runs, in seconds, on the canonical set
(m=2, lambda=1, a=1).  CLI rows are cold processes: interpreter start,
imports and the command.  ``baseline.json`` keeps the numbers measured
at the commit that defined the benchmark.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from diracband import bands, monodromy, soliton, verify  # noqa: E402

REPEATS = 3


def best(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def cold(argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return best(lambda: subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                                       capture_output=True, check=False, timeout=120))


def main() -> None:
    params = soliton.ModelParams.from_lambda(2.0, 1.0, 1.0)
    pot = soliton.periodized_potential(params)
    table = bands.band_edges(params, e_max=7.0, tol=1e-6)
    band0 = table.allowed_bands(positive_only=True)[0]
    rng = np.random.default_rng(0)
    out = {
        "bands.lyapunov_many.701": best(lambda: bands.lyapunov_many(params, np.linspace(0, 7, 701))),
        "bands.lyapunov_many.1e5": best(lambda: bands.lyapunov_many(params, np.linspace(0, 7, 100_000))),
        "bands.lyapunov.x1000": best(lambda: [bands.lyapunov(params, e) for e in np.linspace(0.1, 7, 1000)]),
        "bands.band_edges.e_max7": best(lambda: bands.band_edges(params, e_max=7.0, tol=1e-6)),
        "bands.dispersion.band0.n101": best(lambda: bands.dispersion(params, band0, 101)),
    }
    for n in (1, 40, 400):
        es = rng.uniform(2.5, 7.0, n)
        out[f"monodromy.lyapunov_numeric_many.{n}"] = best(
            lambda: monodromy.lyapunov_numeric_many(pot, 2.0, es, 1.0))
    out["verify.run_verification"] = best(lambda: verify.run_verification(params))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        target = os.path.join(tmp, "artifact")
        out["cold.interpreter"] = cold(["-c", "pass"])
        out["cold.import_cli"] = cold(["-c", "import diracband.cli"])
        for name, args in (
            ("potential", ["potential"]),
            ("lyapunov", ["lyapunov"]),
            ("bands", ["bands"]),
            ("dispersion", ["dispersion"]),
            ("bands_verify", ["bands", "--emin", "-7", "--verify"]),
            ("verify", ["verify"]),
        ):
            out[f"cold.cli.{name}"] = cold(["-m", "diracband.cli", *args, "--out", target])
    json.dump({name: round(value, 6) for name, value in out.items()}, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
