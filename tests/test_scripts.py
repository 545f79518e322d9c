"""The two experiment scripts run end to end at a tiny size."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> None:
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_convergence_experiment(tmp_path):
    out = tmp_path / "convergence.csv"
    run_script("convergence_experiment.py", "--out", str(out), "--agents", "5",
               "--etas", "1.0", "--cycles", "3", "--seeds", "1")
    lines = out.read_text().splitlines()
    assert lines[0] == "#schema=1"
    assert len(lines) == 2 + 5 * 3  # header, then five variants at three cycles each


def test_privacy_attack_experiment(tmp_path):
    out = tmp_path / "privacy"
    run_script("privacy_attack_experiment.py", "--out", str(out), "--agents", "5",
               "--eta", "1.0", "--iterations", "20", "--track", "1", "2")
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"{v}_agent{a}.csv" for v in ("iadmm", "piadmm1", "piadmm2")
                     for a in (1, 2)]
    for path in out.iterdir():
        lines = path.read_text().splitlines()
        assert lines[0] == "#schema=1" and len(lines) > 2
