import hashlib
import json
import subprocess
import sys
from pathlib import Path

from checks import check_band_table, complete_positive_bands
from inputs import oracle_sets, sweep_sets

from diracband import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "space.py"


def test_slice_lists_the_checks_the_cli_fails(tmp_path, capsys):
    # the first four oracle sets of seed 6: the canonical set and three
    # that fail dirac-residual or residual-order (ROADMAP item 1)
    out = tmp_path / "space.json"
    subprocess.run([sys.executable, str(TOOL), str(out), "--seeds", "6", "--sets", "4"],
                   check=True, capture_output=True, timeout=120)
    sections = json.loads(out.read_text())
    assert list(sections) == ["verify"]  # no --tables, no tables section
    doc = sections["verify"]
    assert (doc["seeds"], doc["sets_per_seed"], doc["calls"], doc["errors"]) == ([6], 4, 4, [])
    # the canonical set goes in through --lambda 1, so its regression check runs
    assert doc["checks"]["band-edge-regression"]["runs"] == 1

    runs, ids, codes = {}, {}, []
    for index, p in enumerate(oracle_sets(6)[:4]):
        report = tmp_path / f"verify{index}.json"
        codes.append(cli.main(["verify", *p.cli_args(), "--out", str(report)]))
        for check in json.loads(report.read_text())["data"]["checks"]:
            runs[check["name"]] = runs.get(check["name"], 0) + 1
            ids.setdefault(check["name"], []).extend([] if check["passed"] else [[6, index]])
    capsys.readouterr()
    assert {name: (c["runs"], c["failed"], c["ids"]) for name, c in doc["checks"].items()} == {
        name: (runs[name], len(ids[name]), ids[name]) for name in runs
    }
    assert doc["failed_calls"] == codes.count(cli.EXIT_VERIFICATION) > 0
    assert set(codes) <= {cli.EXIT_OK, cli.EXIT_VERIFICATION}


def test_table_slice_matches_the_cli_artifacts(tmp_path, capsys):
    # the first 45 sweep sets of seeds 1-3; in seed 1, sets 38 and 41 hold a
    # narrow band below the mass whose edge reads |D| - 2 above dispersion's
    # 1e-9 window
    out = tmp_path / "space.json"
    subprocess.run([sys.executable, str(TOOL), str(out), "--sets", "0", "--tables", "45"],
                   check=True, capture_output=True, timeout=120)
    sections = json.loads(out.read_text())
    assert list(sections) == ["tables"] and sections["tables"]["sets_per_seed"] == 45
    assert list(sections["tables"]["seeds"]) == ["1", "2", "3"]

    # set 41's count of positive edges changes with a 64-way zoom (ROADMAP item 5)
    digest, row = hashlib.sha256(), {"tables": 0, "positive_edges": 0, "band_table": {},
                                     "dispersion": [], "edge_count_64_way": [[1, 41]],
                                     "errors": []}
    for index, p in enumerate(sweep_sets(1)[:45]):
        window = [*p.cli_args(), "--emin", repr(-p.e_max), "--emax", repr(p.e_max)]
        path = tmp_path / f"bands{index}.json"
        assert cli.main(["bands", *window, "--out", str(path)]) == cli.EXIT_OK
        doc = json.loads(path.read_text())
        bands = [(b["e_lo"], b["e_hi"], b["kind"]) for b in doc["data"]["bands"]]
        digest.update(repr((tuple(doc["data"]["edges"]), bands)).encode() + b"\n")
        row["tables"] += 1
        row["positive_edges"] += sum(e > 0 for e in doc["data"]["edges"])
        cause, _ = check_band_table(p, doc)
        if cause is not None:
            row["band_table"].setdefault(cause, []).append([1, index])
        codes = [cli.main(["dispersion", *window, "--band-index", str(k), "--samples", "101",
                           "--out", str(tmp_path / "k.csv")])
                 for k in range(len(complete_positive_bands(doc)))]
        if cli.EXIT_COMPUTATION in codes:
            row["dispersion"].append([1, index])
        assert set(codes) <= {cli.EXIT_OK, cli.EXIT_COMPUTATION}
    capsys.readouterr()
    row["sha256"] = digest.hexdigest()
    assert sections["tables"]["seeds"]["1"] == row
    assert row["dispersion"] == [[1, 38], [1, 41]]
