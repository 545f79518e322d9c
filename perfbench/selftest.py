"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert NAME.fullmatch(m["name"])
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        # the human-readable line: name, value, unit
        assert any(re.fullmatch(rf"{re.escape(m['name'])} \S+ {re.escape(m['unit'])}", ln)
                   for ln in lines), m["name"]


def test_refuses_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "runs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_planted_wrong_exact_attack_counts_as_failed(tmp_path):
    sys.path.insert(0, run.SRC)
    from ringadmm.cli import main

    ops, *_ = run.setup("attacks", 5, str(tmp_path), size="tiny")
    exact = [op for op in ops if op.label == "attack:exact_iadmm"][:2]
    records = run.run_ops(main, exact, str(tmp_path / "out"), count=2)
    assert [o for _, o in run.check(records)] == [run.OK, run.OK]

    report = os.path.join(records[1][1], "attack_agent1.csv")
    with open(report) as fh:
        head, cols, *rows = fh.read().splitlines()
    k, c, tx, ex, ty, ey, _, ery = rows[3].split(",")
    planted = float(ex) + 1e-6
    rows[3] = ",".join([k, c, tx, repr(planted), ty, ey, repr(abs(planted - float(tx))), ery])
    with open(report, "w") as fh:
        fh.write("\n".join([head, cols, *rows]) + "\n")

    assert [o for _, o in run.check(records)] == [run.OK, run.WRONG]


def test_only_the_oracle_defect_is_a_known_defect(tmp_path):
    logistic = workloads.Op("run:logistic", [], lambda out: 1, workloads.ORACLE_DEFECT)
    ridge = workloads.Op("run:wadmm", [], lambda out: 1)
    oracle = ("runtime failure: OptimizerError: gradient norm 1.234e-12 "
              "after 500 iterations (target 1.0e-12)\n")
    other = "runtime failure: ValueError: bad shape\n"
    cases = [(logistic, 2, oracle, run.KNOWN_DEFECT), (logistic, 2, other, run.FAILED),
             (logistic, 1, oracle, run.FAILED), (ridge, 2, oracle, run.FAILED)]
    records = []
    for i, (op, rc, err, _) in enumerate(cases):
        out = tmp_path / str(i)
        out.mkdir()
        (out / run.STDERR_FILE).write_text(err)
        records.append([op, str(out), rc, 1.0, 1.0])
    assert run.check(records) == [(None, expected) for *_, expected in cases]


def test_failed_ops_add_time_but_no_throughput():
    # records: [op, out, exit code, seconds, slowdown]; units None = failed
    records = [[None, "", 0, 1.0, 1.0], [None, "", 2, 2.0, 1.0], [None, "", 0, 1.0, 1.0]]
    metrics = run.end_to_end(records, [100, None, 100], setup_s=1.0)
    assert metrics["ops_per_s"][0] == 2 / 4.0
    assert metrics["comm_units_per_s"][0] == 200 / 4.0
    assert metrics["ok_frac"][0] == 2 / 3


def test_checkpoint_rows_match_the_harness_rule():
    for iterations in (1, 5, 12, 60, 61):
        for every in (1, 4, 5, 20):
            kept = [i for i in range(iterations) if i % every == 0 or i == iterations - 1]
            assert workloads.checkpoint_rows(iterations, every) == len(kept)
