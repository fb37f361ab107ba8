import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tools" / "golden.py"


def test_second_run_overwrites_every_artifact_with_the_same_bytes(tmp_path):
    # the second run writes over every artifact of the first
    def golden() -> dict:
        subprocess.run([sys.executable, str(GOLDEN), str(tmp_path), "--sweep", "2", "--oracle", "1"],
                       check=True, capture_output=True, timeout=120)
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    first = golden()
    second = golden()
    assert second == first
    artifacts = [name for name in first if not name.endswith(".log")]
    assert any(name.startswith("oracle") for name in artifacts) and len(artifacts) > 20
    assert not [name for name in artifacts if b"\0" in first[name]]
    logs = [first[name] for name in first if name.endswith(".log")]
    assert all(log.startswith(b"exit ") for log in logs)
    assert not [log for log in logs if b"RuntimeWarning" in log]
