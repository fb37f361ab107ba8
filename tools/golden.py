#!/usr/bin/env python3
"""Write a golden artifact set of the CLI into a directory, for ``diff -r``.

    python3 tools/golden.py OUT [--src SRC] [--seed 1] [--sweep 40] [--oracle 4]

Runs ``diracband.cli.main`` in process on the benchmark's seeded inputs
(``bench/inputs.py``): for each of the first ``--sweep`` sweep sets,
``potential``, ``lyapunov``, ``bands`` and ``dispersion`` for every positive
allowed band, the row commands both as CSV and as ``--format json``; for
each of the first ``--oracle`` oracle units, ``verify``, ``bands --verify``
and the tabulated ``lyapunov --potential-file`` trace.
Every call leaves its artifact and a ``.log`` file with its exit code,
stdout and stderr; BLAS runs on one thread, as in the benchmark.
``--src`` picks the package sources, so one script writes the set of two
checkouts: ``tools/golden.py new; tools/golden.py old --src ../parent/src;
diff -r old new``.
"""
import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sweep", type=int, default=40, help="sweep sets (default 40)")
    parser.add_argument("--oracle", type=int, default=4, help="oracle units (default 4)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    from diracband import cli
    from inputs import make_inputs

    args.out.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out)  # relative paths: messages do not depend on OUT

    def rows(name: str, argv: list[str]) -> None:
        call(name, argv, ".csv")
        call(name + "-json", [*argv, "--format", "json"], ".json")

    def call(name: str, argv: list[str], ext: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*argv, "--out", name + ext])
        log = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        Path(name + ".log").write_text(log)
        return name + ext

    units = make_inputs(args.seed, ".")
    for i, p in enumerate(units["sweep"][:args.sweep]):
        common = p.cli_args()
        window = [*common, "--emin", repr(-p.e_max), "--emax", repr(p.e_max)]
        rows(f"sweep{i:03d}-potential", ["potential", *common])
        rows(f"sweep{i:03d}-lyapunov", ["lyapunov", *common, "--emax", repr(p.e_max)])
        table = Path(call(f"sweep{i:03d}-bands", ["bands", *window], ".json"))
        bands = json.loads(table.read_text())["data"]["bands"] if table.exists() else []
        for k in range(sum(b["kind"] == "allowed" and b["e_lo"] >= 0 for b in bands)):
            rows(f"sweep{i:03d}-dispersion{k}", ["dispersion", *window, "--band-index", str(k),
                                                 "--samples", "101"])
    for i, (p, profile) in enumerate(units["oracle"][:args.oracle]):
        window = ["--emin", repr(-p.e_max), "--emax", repr(p.e_max)]
        call(f"oracle{i:03d}-verify", ["verify", *p.cli_args()], ".json")
        call(f"oracle{i:03d}-bands-verify", ["bands", *p.cli_args(), *window, "--verify"], ".json")
        q = profile.params
        call(f"oracle{i:03d}-tabulated", [
            "lyapunov", "--mass", repr(q.mass), "--gamma", repr(q.gamma),
            "--half-period", repr(q.half_period), "--emin", repr(-q.e_max), "--emax", repr(q.e_max),
            "--potential-file", profile.path,
        ], ".csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
