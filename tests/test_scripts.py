"""The experiment scripts and the output comparison run end to end at a tiny size."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name: str, *args: str) -> str:
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


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


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    tree = str(SCRIPTS.parent)
    out = run_script("compare_outputs.py", tree, tree, "--sizes", "tiny", "--parts", "0",
                     "--seeds", "23")
    ops, files = re.fullmatch(r"(\d+) ops, (\d+) files compared: no difference",
                              out.splitlines()[-1]).groups()
    assert int(ops) > 0 and int(files) > int(ops)
    counts = re.findall(r"^(\S+): 0 of (\d+) ops differ$", out, re.M)
    assert {"run:logistic", "sweep", "attack:exact_iadmm"} <= {label for label, _ in counts}
    assert sum(int(n) for _, n in counts) == int(ops)


def test_compare_outputs_reports_each_kind_of_difference(tmp_path):
    compare = load_script("compare_outputs.py").compare
    old, new = tmp_path / "old", tmp_path / "new"
    for work in (old, new):
        (work / "out").mkdir(parents=True)
        # differs only in its own work directory's path: equal
        (work / "out" / "summary.txt").write_text(f"written to {work}/out\n")
        (work / "out" / "same.csv").write_text("1,2,3\n")
        (work / "streams" / "0-0").mkdir(parents=True)
        (work / "streams" / "0-0" / "exit_code").write_text("0\n")
    (old / "out" / "one_byte.csv").write_text("a\n0.5\n")
    (new / "out" / "one_byte.csv").write_text("a\n0.6\n")
    (old / "out" / "gone.csv").write_text("x\n")
    (new / "out" / "added.csv").write_text("x\n")
    diffs, files, ops, *_ = compare(str(old), str(new))
    assert diffs == ["only in OLD: out/gone.csv", "only in NEW: out/added.csv",
                     "differs: out/one_byte.csv: line 2: b'0.5' != b'0.6'"]
    assert (files, ops) == (4, 1)


def test_compare_outputs_counts_the_differing_ops_of_each_label(tmp_path):
    compare = load_script("compare_outputs.py").compare
    old, new = tmp_path / "old", tmp_path / "new"
    labels = {"0-0": "run:logistic", "0-1": "run:logistic", "0-2": "run:iadmm", "0-3": "run:iadmm"}
    for work in (old, new):
        (work / "runs-tiny-23" / "inputs" / "0").mkdir(parents=True)
        for key, label in labels.items():
            (work / "runs-tiny-23" / "streams" / key).mkdir(parents=True)
            (work / "runs-tiny-23" / "streams" / key / "exit_code").write_text("0\n")
            (work / "runs-tiny-23" / "streams" / key / "label").write_text(f"{label}\n")
            (work / "runs-tiny-23" / "out" / key).mkdir(parents=True)
            (work / "runs-tiny-23" / "out" / key / "summary.txt").write_text("z=1\n")
    base = ("runs-tiny-23", "out")
    new.joinpath(*base, "0-0", "summary.txt").write_text("z=2\n")  # an op's file differs
    new.joinpath(*base, "0-1", "extra.csv").write_text("x\n")  # an op writes one more file
    new.joinpath("runs-tiny-23", "inputs", "0", "run0.cfg").write_text("p = 2\n")  # no op's
    diffs, files, ops, by_label, _ = compare(str(old), str(new))
    assert len(diffs) == 3 and ops == 4
    assert by_label == {"run:logistic": [2, 2], "run:iadmm": [0, 2]}


def test_compare_outputs_gives_the_largest_numeric_difference_per_label_and_file(tmp_path):
    script = load_script("compare_outputs.py")
    assert script.largest_difference(b"k,z\n0,1.5\n1,2.0\n", b"k,z\n0,1.25\n1,2.5\n") == 0.5
    assert script.largest_difference(b"a\n1\n", b"a\n1\n2\n") is None  # one more line
    assert script.largest_difference(b"a,b\n1,x\n", b"a,b\n1,y\n") is None  # not a number
    assert script.largest_difference(b"a\nnan\n", b"a\n1.0\n") == math.inf
    old, new = tmp_path / "old", tmp_path / "new"
    ops = {"0-0": ("run:iadmm", "0.5"), "0-1": ("run:iadmm", "0.75"), "0-2": ("sweep", "x")}
    for work in (old, new):
        for key, (label, value) in ops.items():
            streams, out = work / "w" / "streams" / key, work / "w" / "out" / key
            streams.mkdir(parents=True)
            out.mkdir(parents=True)
            (streams / "exit_code").write_text("0\n")
            (streams / "label").write_text(f"{label}\n")
            (out / "transcript.csv").write_text(f"k,z\n0,{value}\n")
            (out / "run_trace.csv").write_text("k,a\n0,1.0\n")
    base = new / "w" / "out"
    (base / "0-0" / "transcript.csv").write_text("k,z\n0,0.5000001\n")
    (base / "0-1" / "transcript.csv").write_text("k,z\n0,0.7\n")
    (base / "0-1" / "run_trace.csv").write_text("k,a\n0,1.0\n1,2.0\n")
    (base / "0-2" / "transcript.csv").write_text("k,z\n0,y\n")
    *_, deltas = script.compare(str(old), str(new))
    assert deltas.keys() == {"run:iadmm", "sweep"}
    assert deltas["run:iadmm"]["transcript.csv"] == pytest.approx(0.05)
    assert deltas["run:iadmm"]["run_trace.csv"] is None and deltas["sweep"] == {
        "transcript.csv": None}


def test_bench_pairs_summary_compares_the_sides_pair_by_pair():
    summarize = load_script("bench_pairs.py").summarize
    metrics = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    parent = [{"ops_per_s": v, "setup_s": s} for v, s in ((20.0, 0.4), (22.0, 0.5), (21.0, 0.3),
                                                          (19.0, 0.4))]
    change = [{"ops_per_s": v, "setup_s": s} for v, s in ((25.0, 0.5), (21.0, 0.4), (26.0, 0.3),
                                                          (24.0, 0.6))]
    out = summarize(parent, change, metrics)
    ops = out["ops_per_s"]
    assert ops["parent"] == {"median": 20.5, "q1": 19.75, "q3": 21.25, "n": 4}
    assert ops["change"] == {"median": 24.5, "q1": 23.25, "q3": 25.25, "n": 4}
    assert (ops["change_wins"], ops["ties"]) == (3, 0)  # higher is better: 21 < 22 loses
    assert ops["ratio_change_over_parent"] == 24.5 / 20.5
    assert ops["worse_by_frac"] == 1.0 - 24.5 / 20.5 < 0
    assert (ops["bound"], ops["unit"]) == (0.24, "1/s")
    setup = out["setup_s"]
    assert (setup["change_wins"], setup["ties"]) == (1, 1)  # lower is better: 0.4 < 0.5 wins
    assert setup["worse_by_frac"] == 0.45 / 0.4 - 1.0 > 0


@pytest.mark.parametrize("claim, want", [
    (None, {"runs": 10, "attacks": 3, "sweep": 3}),
    ("sweep", {"runs": 3, "attacks": 3, "sweep": 10}),
])
def test_bench_pairs_gives_the_claimed_workload_ten_pairs(claim, want, tmp_path, monkeypatch):
    script = load_script("bench_pairs.py")
    tree = tmp_path / "tree"
    tree.mkdir()
    metric = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}
    (tree / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [metric]}))
    started = []

    def bench_once(tree, workload, seed, seconds):
        started.append((os.path.basename(tree), workload, seed))
        return {"seed": seed, "ops_per_s": 1.0, "attempted": 1, "failed": 0, "correct": True,
                "import_s": 0.1, "op_s": {workload: [0.5]}}

    monkeypatch.setattr(script, "bench_once", bench_once)
    monkeypatch.chdir(tmp_path)
    argv = [str(tree), str(tree), "--label", "t", "--first-seed", "5"]
    assert script.main(argv + (["--claim", claim] if claim else [])) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["pairs"] == want and list(record["pairs"]) == ["runs", "attacks", "sweep"]
    seeds = range(5, 5 + sum(want.values()))
    assert [s for _, _, s in started] == [s for s in seeds for _ in range(2)]
    assert [w for _, w, _ in started[::2]] == [w for w, n in want.items() for _ in range(n)]
    with pytest.raises(SystemExit):
        script.main(argv + ["--claim", "walks"])
