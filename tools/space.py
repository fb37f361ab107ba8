#!/usr/bin/env python3
"""Write the failures of ``verify`` over the benchmark's oracle sets to one JSON file.

    python3 tools/space.py OUT [--src SRC] [--seeds 1-16] [--sets 64]

Runs ``verify.run_verification`` in process on the first ``--sets`` oracle
sets (``bench/inputs.oracle_sets``) of every seed of ``--seeds`` (a range
``A-B`` or one seed), each model built from the set's CLI arguments as
``diracband verify`` builds it: the canonical set through the default
``--lambda 1``, so that its ``band-edge-regression`` check runs.  For each
check the file holds the calls that ran it and the (seed, set) ids of the
calls it failed; a call that raises is listed under ``errors`` with its
message.  The file is deterministic for one machine and BLAS build, and
BLAS runs on one thread, as in the benchmark, so the files of two
checkouts compare with ``diff``: ``tools/space.py new.json; tools/space.py
old.json --src ../parent/src``.  The run time goes to stdout.
"""
import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-16"),
                        help="seeds, A-B or one seed (default 1-16)")
    parser.add_argument("--sets", type=int, default=64, help="oracle sets per seed (default 64)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import numpy as np
    from diracband import cli, verify
    from diracband.errors import DiracBandError
    from inputs import oracle_sets

    checks, errors, calls, failed_calls = {}, [], 0, 0
    cli_parser = cli.build_parser()
    start = time.perf_counter()
    for seed in args.seeds:
        for index, p in enumerate(oracle_sets(seed)[:args.sets]):
            params = cli._model(cli_parser.parse_args(["verify", *p.cli_args()]))
            calls += 1
            try:
                # as cli.main runs it: a non-finite value fails a check, not a warning
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    results = verify.run_verification(params)
            except DiracBandError as exc:
                errors.append([seed, index, str(exc)])
                failed_calls += 1
                continue
            failed_calls += not all(r.passed for r in results)
            for r in results:
                check = checks.setdefault(r.name, {"runs": 0, "failed": 0, "ids": []})
                check["runs"] += 1
                if not r.passed:
                    check["failed"] += 1
                    check["ids"].append([seed, index])
    elapsed = time.perf_counter() - start
    doc = {
        "seeds": args.seeds,
        "sets_per_seed": args.sets,
        "calls": calls,
        "failed_calls": failed_calls,
        "checks": checks,
        "errors": errors,
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one (seed, set) id a line
    args.out.write_text(re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text) + "\n")
    print(f"{calls} calls, {failed_calls} failed, {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
