import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "oracle_passes.py"


def test_steady_round_takes_no_page_faults():
    proc = subprocess.run([sys.executable, str(TOOL), "--units", "1"],
                          check=True, capture_output=True, text=True, timeout=120)
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["round", "unit", "command", "energies", "distinct", "ms", "minflt", "steps"]
    rows = [line.split() for line in lines]
    commands = ["verify", "bands-verify", "tabulated"]
    assert [(row[0], row[1], row[2]) for row in rows] == [
        (round_, "0", command) for round_ in ("warm", "steady") for command in commands
    ]
    for row in rows:
        steps = [int(count) for count in row[7].split(",")]
        assert steps and all(fine == 2 * coarse for coarse, fine in zip(steps, steps[1:]))
    # both rounds make the same passes
    assert [row[3:5] + row[7:] for row in rows[:3]] == [row[3:5] + row[7:] for row in rows[3:]]
    if sys.platform.startswith("linux"):
        # the workspace is mapped in the warm round; work arrays freed
        # after every pass page-faulted 330-410 times a call of this unit
        assert max(int(row[6]) for row in rows[3:]) <= 64
