import json
import subprocess
import sys
from pathlib import Path

from inputs import oracle_sets

from diracband import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "space.py"


def test_slice_lists_the_checks_the_cli_fails(tmp_path, capsys):
    # the first four oracle sets of seed 6: the canonical set and three
    # that fail dirac-residual or residual-order (ROADMAP item 1)
    out = tmp_path / "space.json"
    subprocess.run([sys.executable, str(TOOL), str(out), "--seeds", "6", "--sets", "4"],
                   check=True, capture_output=True, timeout=120)
    doc = json.loads(out.read_text())
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
