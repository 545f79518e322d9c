"""`run` and `sweep` load neither scipy nor the attack module; `attack` loads
them on first use.

pytest has scipy loaded already, so the commands run in a fresh interpreter
that reports, after each step, which of those modules it holds.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """\
problem = ridge
p = 2
b = 30
network.n_agents = 6
network.eta = 0.5
solver.variant = piadmm1
solver.gamma = uniform:0.9,1.1
solver.init = uniform:-1,1
solver.max_iters = 120
solver.stop_eps = 0.0
attack.kind = lsq
attack.agents = 1,4
"""

CHILD = """\
import json, os, sys
out = sys.argv[1]
cfg, codes, loaded = os.path.join(out, "run.cfg"), {}, {}

def note(step):
    loaded[step] = sorted(m for m in sys.modules
                          if m.split(".")[0] == "scipy" or m == "ringadmm.adversary")

import ringadmm.cli, ringadmm.harness
note("import")
main = ringadmm.cli.main
codes["run"] = main(["run", "--config", cfg, "--out", out, "--quiet"])
note("run")
codes["sweep"] = main(["sweep", "--config", cfg, "--sweep", os.path.join(out, "sweep.cfg"),
                       "--out", out, "--quiet"])
note("sweep")
codes["attack"] = main(["attack", "--config", cfg, "--out", out, "--quiet",
                        "--transcript", os.path.join(out, "transcript.csv")])
note("attack")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The fresh interpreter's exit codes, the modules it held after each
    step, and its output directory."""
    out = tmp_path_factory.mktemp("lazy")
    (out / "run.cfg").write_text(CONFIG)
    (out / "sweep.cfg").write_text("solver.rho = 5.0, 10.0\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", CHILD, str(out)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return {**json.loads(done.stdout.splitlines()[-1]), "out": out}


@pytest.mark.parametrize("step", ["import", "run", "sweep"])
def test_run_and_sweep_load_neither_scipy_nor_the_attacks(fresh, step):
    assert fresh["codes"].get(step, 0) == 0
    assert fresh["loaded"][step] == []


def test_attack_loads_them_on_first_use_and_scores(fresh):
    assert fresh["codes"]["attack"] == 0
    assert {"scipy.sparse", "ringadmm.adversary"} <= set(fresh["loaded"]["attack"])
    for agent in (1, 4):
        with open(fresh["out"] / f"attack_agent{agent}.csv", newline="") as fh:
            fh.readline()  # the schema line
            rows = list(csv.DictReader(fh))
        assert len(rows) == 121  # k = 0..120, the default coordinate 1
        assert all(r["truth_x"] and r["abs_err_y"] for r in rows)
