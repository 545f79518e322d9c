"""Workload inputs and output checks for the ringadmm benchmark.

Every input is a file written during set-up from the workload seed: config
files, sweep specs and, for `attacks`, the transcripts under attack.  The
program only ever sees those files, through `ringadmm.cli.main(argv)`.

Set-up is split into SETUP_PARTS equal parts with disjoint seeds; the
benchmark times each part and reports the median part times the part count,
so one slow part does not move `setup_s`.  The ops of all parts are then
interleaved into one pool that the timed loop cycles through.
"""

from __future__ import annotations

import csv
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

SETUP_PARTS = 3

RIDGE = {
    "problem": "ridge",
    "p": "2",
    "b": "30",
    "network.eta": "0.3",
    "solver.rho": "10.0",
    "solver.stop_eps": "0",  # r_primal is never negative: run to max_iters
}
RANDOM_START = {"solver.init": "uniform:-1,1"}
GAMMA = {"solver.gamma": "uniform:0.9,1.1"}
SIGMA = {"solver.sigma": "0.01"}

# (label, config overrides, full-size and tiny-size (n_agents, max_iters)).
# `runs` steps through this list in order, so every round covers every
# variant branch of the solver.  Iteration counts are set so that every kind
# takes about the same time: then the median op time does not jump between
# kinds when a run ends mid-round.  The logistic op carries the centralized
# optimum oracle across many data seeds; the oracle fails on some of them
# (an absolute gradient tolerance the damped Newton search cannot always
# reach).  Those ops are the program's known defect: not ok, so they lower
# `ok_frac` and `ops_per_s`, but not counted as failed ops.
RUN_MIX = [
    ("iadmm_eps", {"solver.variant": "iadmm", "solver.stop_eps": "1e-5"},
     (20, 20000), (5, 2000)),
    ("iadmm_randinit", {"solver.variant": "iadmm_randinit", **RANDOM_START},
     (50, 3000), (5, 60)),
    ("piadmm1", {"solver.variant": "piadmm1", **GAMMA, **RANDOM_START},
     (75, 2700), (5, 60)),
    ("piadmm2", {"solver.variant": "piadmm2", **SIGMA, **RANDOM_START},
     (100, 2500), (5, 60)),
    ("wadmm", {"solver.variant": "wadmm"}, (50, 2300), (5, 60)),
    ("logistic", {"problem": "logistic", "solver.x_update": "first_order"},
     (10, 2800), (5, 60)),
]
# what `ringadmm run` prints when the oracle gives up; it then exits 2
ORACLE_DEFECT = re.compile(
    r"runtime failure: OptimizerError: gradient norm \S+ after \d+ iterations")

# (label, run overrides, attack overrides, full and tiny (n_agents, max_iters))
ATTACK_MIX = [
    ("lsq_randinit", {"solver.variant": "iadmm_randinit", **RANDOM_START},
     {"attack.kind": "lsq"}, (50, 2000), (5, 40)),
    ("lsq_piadmm2", {"solver.variant": "piadmm2", **SIGMA, **RANDOM_START},
     {"attack.kind": "lsq"}, (100, 2000), (5, 40)),
    ("colluding_piadmm1", {"solver.variant": "piadmm1", **GAMMA, **RANDOM_START},
     {"attack.kind": "colluding", "attack.target": "2"}, (50, 2000), (5, 40)),
    ("exact_iadmm", {"solver.variant": "iadmm"},
     {"attack.kind": "exact"}, (20, 2000), (5, 40)),
]
ATTACK_OUTPUT = {"attack.agents": "1,2", "attack.coordinates": "1,2"}
EXACT_TOL = 1e-9

TINY_ETA = "1.0"  # a 5-agent ring needs every edge

SWEEP_VARIANTS = ["iadmm", "iadmm_randinit", "piadmm1", "piadmm2", "wadmm"]
SWEEP_SIZES = {"full": ([10, 20], 4, 100), "tiny": ([4, 5], 2, 12)}
SWEEP_BASE = {**RIDGE, **RANDOM_START, **GAMMA, **SIGMA}

ROUNDS_PER_PART = {"runs": 12, "sweep": 20}


@dataclass
class Op:
    """One CLI invocation; `--out <dir>` is appended per execution."""

    label: str
    argv: list[str]
    check: Callable[[str], int]  # output dir -> comm units; raises CheckFailed
    # standard error of an exit-2 failure that is the program's known defect
    known_defect: re.Pattern | None = None


class CheckFailed(Exception):
    """An op exited 0 but its output is wrong."""


def _seeds(rng: random.Random) -> dict[str, str]:
    return {f"seeds.{k}": str(rng.randrange(1, 2**31))
            for k in ("graph", "data", "solver", "attack")}


def _write_kv(path: str, kv: dict[str, str]) -> str:
    with open(path, "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return path


def _size(sizes: tuple, size: str) -> dict[str, str]:
    n, iters = sizes[0] if size == "full" else sizes[1]
    kv = {"network.n_agents": str(n), "solver.max_iters": str(iters)}
    if size == "tiny":
        kv["network.eta"] = TINY_ETA
    return kv


def setup_part(workload: str, seed: int, part: int, work: str, size: str = "full") -> list[Op]:
    """Write one set-up part's inputs under `work`; its seeds come from
    (workload, seed, part).  Returns the part's ops."""
    build = {"runs": _runs_part, "attacks": _attacks_part, "sweep": _sweep_part}[workload]
    d = os.path.join(work, "inputs", str(part))
    os.makedirs(d)
    return build(random.Random(f"{workload}:{seed}:{part}"), d, size)


def interleave(parts: list[list[Op]]) -> list[Op]:
    return [op for group in zip(*parts) for op in group]


def _runs_part(rng: random.Random, d: str, size: str) -> list[Op]:
    ops = []
    for r in range(ROUNDS_PER_PART["runs"]):
        for i, (label, over, full, tiny) in enumerate(RUN_MIX):
            kv = {**RIDGE, **over, **_size((full, tiny), size), **_seeds(rng)}
            cfg = _write_kv(os.path.join(d, f"run{r}_{i}.cfg"), kv)
            stop = "primal_eps" if float(kv["solver.stop_eps"]) > 0 else "max_iters"
            ops.append(Op(f"run:{label}", ["run", "--config", cfg, "--quiet"],
                          lambda out, stop=stop: check_run(out, stop),
                          ORACLE_DEFECT if kv["problem"] == "logistic" else None))
    return ops


def _attacks_part(rng: random.Random, d: str, size: str) -> list[Op]:
    from ringadmm.cli import main

    ops = []
    for i, (label, run_over, attack_over, full, tiny) in enumerate(ATTACK_MIX):
        kv = {**RIDGE, **run_over, **_size((full, tiny), size), **_seeds(rng)}
        run_dir = os.path.join(d, f"transcript{i}")
        cfg = _write_kv(os.path.join(d, f"run{i}.cfg"), kv)
        if main(["run", "--config", cfg, "--out", run_dir, "--quiet"]) != 0:
            raise RuntimeError(f"set-up run {cfg} failed")
        transcript = os.path.join(run_dir, "transcript.csv")
        iterations = check_run(run_dir, "max_iters")
        acfg = _write_kv(os.path.join(d, f"attack{i}.cfg"),
                         {**kv, **ATTACK_OUTPUT, **attack_over})
        kind = attack_over["attack.kind"]
        ops.append(Op(f"attack:{label}",
                      ["attack", "--config", acfg, "--transcript", transcript, "--quiet"],
                      lambda out, kind=kind, n=iterations: check_attack(out, kind, n)))
    return ops


def _sweep_part(rng: random.Random, d: str, size: str) -> list[Op]:
    sizes, n_seeds, iters = SWEEP_SIZES[size]
    base_kv = {**SWEEP_BASE, "solver.max_iters": str(iters)}
    if size == "tiny":
        base_kv["network.eta"] = TINY_ETA
    base = _write_kv(os.path.join(d, "base.cfg"), base_kv)
    expected_rows = len(SWEEP_VARIANTS) * n_seeds * sum(
        checkpoint_rows(iters, n) for n in sizes)
    points = len(SWEEP_VARIANTS) * len(sizes) * n_seeds
    ops = []
    for r in range(ROUNDS_PER_PART["sweep"]):
        spec = _write_kv(os.path.join(d, f"sweep{r}.cfg"), {
            "solver.variant": ", ".join(SWEEP_VARIANTS),
            "network.n_agents": ", ".join(map(str, sizes)),
            "seed": ", ".join(str(rng.randrange(1, 2**31)) for _ in range(n_seeds)),
        })
        ops.append(Op("sweep", ["sweep", "--config", base, "--sweep", spec, "--quiet"],
                      lambda out, p=points, rows=expected_rows, k=iters:
                      check_sweep(out, p, rows, k)))
    return ops


def checkpoint_rows(iterations: int, every: int) -> int:
    """Rows kept when every `every`-th iteration and the last one are written."""
    last = iterations - 1
    return last // every + 1 + (1 if last % every else 0)


# ---- output checks: each returns the comm units the op's output accounts for


def check_run(out: str, stop: str) -> int:
    from ringadmm.records import Transcript

    with open(os.path.join(out, "summary.txt")) as fh:
        summary = fh.read()
    fields = dict(re.findall(r"(\w+)=(\S+)", summary))
    units = int(fields["comm_units"])
    if fields.get("stop") != stop:
        raise CheckFailed(f"stop={fields.get('stop')}, expected {stop}")
    with open(os.path.join(out, "transcript.csv")) as fh:
        rows = len(Transcript.read_csv(fh).senders)
    if rows != units:
        raise CheckFailed(f"transcript has {rows} rows, summary says {units} comm units")
    return units


def _attack_rows(out: str) -> list[dict[str, str]]:
    names = sorted(f for f in os.listdir(out) if f.startswith("attack_agent"))
    if not names:
        raise CheckFailed("no attack report written")
    rows = []
    for name in names:
        with open(os.path.join(out, name)) as fh:
            if fh.readline().strip() != "#schema=1":
                raise CheckFailed(f"{name}: bad schema line")
            rows += list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed("empty attack report")
    return rows


def check_attack(out: str, kind: str, iterations: int) -> int:
    rows = _attack_rows(out)
    cols = ["truth_x", "est_x", "truth_y", "est_y", "abs_err_x", "abs_err_y"]
    for row in rows:
        if any(row[c] == "" for c in cols):
            raise CheckFailed(f"unscored row k={row['k']}")
        if not all(math.isfinite(float(row[c])) for c in cols):
            raise CheckFailed(f"non-finite value at k={row['k']}")
    if kind == "exact":
        worst = max(max(float(r["abs_err_x"]), float(r["abs_err_y"])) for r in rows)
        if worst > EXACT_TOL:
            raise CheckFailed(f"exact attack error {worst:.3e} > {EXACT_TOL:.0e}")
    return iterations


def check_sweep(out: str, points: int, expected_rows: int, iterations: int) -> int:
    with open(os.path.join(out, "sweep.csv")) as fh:
        if fh.readline().strip() != "#schema=1":
            raise CheckFailed("sweep.csv: bad schema line")
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_rows:
        raise CheckFailed(f"{len(rows)} sweep rows, expected {expected_rows}")
    bad = {r["status"] for r in rows} - {"ok"}
    if bad:
        raise CheckFailed(f"sweep statuses {sorted(bad)}")
    last = {}
    for r in rows:
        last[r["run_index"]] = int(r["comm_units"])
    if len(last) != points or set(last.values()) != {iterations}:
        raise CheckFailed("sweep points missing or cut short")
    return sum(last.values())
