#!/usr/bin/env python3
"""Write correctness evidence over the benchmark's inputs to one JSON file.

    python3 tools/space.py OUT [--src SRC] [--seeds 1-16] [--sets 64] [--tables N]

Two sections, each run in process and left out when its count is 0:

``verify``: ``verify.run_verification`` on the first ``--sets`` oracle sets
(``bench/inputs.oracle_sets``) of every seed of ``--seeds`` (a range ``A-B``
or one seed), each model built from the set's CLI arguments as ``diracband
verify`` builds it: the canonical set through the default ``--lambda 1``,
so that its ``band-edge-regression`` check runs.  For each check it holds
the calls that ran it and the (seed, set) ids of the calls it failed; a
call that raises is listed under ``errors`` with its message.

``tables``: the band table of the first ``--tables`` sweep sets
(``bench/inputs.sweep_sets``) of sweep seeds 1-3, over |E| <= m + 5 as
``diracband bands --emin -e --emax e`` writes it.  Per seed it holds the
table count, the positive edges, the ids whose table the benchmark's
``checks.check_band_table`` fails, under its cause label (the edge
certificate, mirror symmetry, missed edges), the ids where
``dispersion`` raises on one of ``checks.complete_positive_bands`` (101
samples), the ids where the table raises, and a sha256 of every table's
edges and bands at full precision.

The file is deterministic for one machine and BLAS build, and BLAS runs on
one thread, as in the benchmark, so the files of two checkouts compare with
``diff``: ``tools/space.py new.json; tools/space.py old.json --src
../parent/src``.  The run time goes to stdout.
"""
import argparse
import hashlib
import json
import os
import re
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent


#: the sweep seeds of the tables section
TABLE_SEEDS = [1, 2, 3]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def verify_section(seeds: list[int], sets: int) -> dict:
    import numpy as np
    from diracband import cli, verify
    from diracband.errors import DiracBandError
    from inputs import oracle_sets

    checks, errors, calls, failed_calls = {}, [], 0, 0
    cli_parser = cli.build_parser()
    for seed in seeds:
        for index, p in enumerate(oracle_sets(seed)[:sets]):
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
    return {
        "seeds": seeds,
        "sets_per_seed": sets,
        "calls": calls,
        "failed_calls": failed_calls,
        "checks": checks,
        "errors": errors,
    }


def tables_section(sets: int) -> dict:
    import numpy as np
    from checks import check_band_table, complete_positive_bands
    from diracband import bands, cli
    from diracband.errors import DiracBandError
    from inputs import sweep_sets

    cli_parser = cli.build_parser()
    out = {}
    for seed in TABLE_SEEDS:
        digest = hashlib.sha256()
        row = {"tables": 0, "positive_edges": 0, "band_table": {}, "dispersion": [], "errors": []}
        for index, p in enumerate(sweep_sets(seed)[:sets]):
            window = ["--emin", repr(-p.e_max), "--emax", repr(p.e_max)]
            args = cli_parser.parse_args(["bands", *p.cli_args(), *window])
            params = cli._model(args)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    doc = {"data": cli.cmd_bands(args, params)}
                except DiracBandError as exc:
                    row["errors"].append([seed, index, str(exc)])
                    continue
                cause, _ = check_band_table(p, doc)
                for lo, hi in complete_positive_bands(doc):
                    try:
                        bands.dispersion(params, bands.Band(lo, hi, "allowed"), 101)
                    except DiracBandError:
                        row["dispersion"].append([seed, index])
                        break
            data = doc["data"]
            row["tables"] += 1
            row["positive_edges"] += sum(e > 0 for e in data["edges"])
            if cause is not None:
                row["band_table"].setdefault(cause, []).append([seed, index])
            table = [(b["e_lo"], b["e_hi"], b["kind"]) for b in data["bands"]]
            digest.update(repr((tuple(data["edges"]), table)).encode() + b"\n")
        row["sha256"] = digest.hexdigest()
        out[str(seed)] = row
    return {"sets_per_seed": sets, "e_max": "m + 5", "seeds": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-16"),
                        help="verify: oracle seeds, A-B or one seed (default 1-16)")
    parser.add_argument("--sets", type=int, default=64,
                        help="verify: oracle sets per seed, 0 for none (default 64)")
    parser.add_argument("--tables", type=int, default=0,
                        help="tables: sweep sets of seeds 1-3 each (default 0, none)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]

    doc, start = {}, time.perf_counter()
    if args.sets > 0:
        doc["verify"] = verify_section(args.seeds, args.sets)
    if args.tables > 0:
        doc["tables"] = tables_section(args.tables)
    elapsed = time.perf_counter() - start
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one (seed, set) id a line
    args.out.write_text(re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text) + "\n")
    if "verify" in doc:
        print(f"verify: {doc['verify']['calls']} calls, {doc['verify']['failed_calls']} failed")
    if "tables" in doc:
        rows = doc["tables"]["seeds"].values()
        failed = sum(len(ids) for r in rows for ids in r["band_table"].values())
        print(f"tables: {sum(r['tables'] for r in rows)} tables, band_table {failed}, "
              + ", ".join(f"{k} {sum(len(r[k]) for r in rows)}" for k in ("dispersion", "errors")))
    print(f"{elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
