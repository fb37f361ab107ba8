#!/usr/bin/env python3
"""Print the passes of every RK4 oracle call of the benchmark's oracle units.

    python3 tools/oracle_passes.py [--src SRC] [--seed 1] [--units 4]

Runs ``diracband.cli.main`` in process on the first ``--units`` oracle units
of a seed (``bench/inputs.py``): ``verify``, ``bands --verify`` and the
tabulated ``lyapunov --potential-file`` trace, as the benchmark does.  The
units run twice, in a ``warm`` round and a ``steady`` one, as a benchmark
run repeats its list: the first round's faults include the growth of the
oracle's workspace (``monodromy._work``), the second shows the passes of a
process that has run them before.  For each call of
``monodromy.lyapunov_numeric_many`` it prints one line: the round, the
unit, the command, the energy count, the distinct |E|, the call's
milliseconds and minor page faults (``getrusage``'s ``ru_minflt``) and the
step count of every pass.  BLAS runs on one thread, as in the
benchmark.  ``--src`` picks the package sources, so the schedules of two
checkouts can be set side by side.
"""
import argparse
import contextlib
import io
import itertools
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--units", type=int, default=4, help="oracle units (default 4)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import numpy as np
    from diracband import cli, monodromy
    from inputs import make_inputs

    passes, lines = [], []
    propagate, oracle = monodromy._propagate, monodromy.lyapunov_numeric_many

    def counting(*call):
        # the step grid is the last argument: a node array, or a step count
        grid = call[-1]
        passes.append(int(grid) if np.ndim(grid) == 0 else len(grid) - 1)
        return propagate(*call)

    def timed(potential, m, energies, *rest, **kwargs):
        passes.clear()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            return oracle(potential, m, energies, *rest, **kwargs)
        finally:
            ms = 1e3 * (time.perf_counter() - start)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            e = np.asarray(energies, dtype=float)
            lines.append(f"{round_:<6} {unit:4d} {command:<14} {e.size:8d} {np.unique(np.abs(e)).size:8d} "
                         f"{ms:9.2f} {faults:7d}  {','.join(map(str, passes))}")

    monodromy._propagate, monodromy.lyapunov_numeric_many = counting, timed
    print(f"{'round':<6} {'unit':>4} {'command':<14} {'energies':>8} {'distinct':>8} {'ms':>9} {'minflt':>7}  steps")
    with tempfile.TemporaryDirectory() as tmp:
        units = make_inputs(args.seed, tmp)["oracle"][:args.units]
        for round_, (unit, (p, profile)) in itertools.product(("warm", "steady"), enumerate(units)):
            q = profile.params
            calls = {
                "verify": ["verify", *p.cli_args()],
                "bands-verify": ["bands", *p.cli_args(), "--emin", repr(-p.e_max),
                                 "--emax", repr(p.e_max), "--verify"],
                "tabulated": ["lyapunov", "--mass", repr(q.mass), "--gamma", repr(q.gamma),
                              "--half-period", repr(q.half_period), "--emin", repr(-q.e_max),
                              "--emax", repr(q.e_max), "--potential-file", profile.path],
            }
            for command, call in calls.items():
                # verify prints its summary to stdout
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main([*call, "--out", os.path.join(tmp, "artifact")])
                for line in lines:
                    print(line)
                lines.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
