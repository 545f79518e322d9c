"""Time two source trees of ringadmm in alternating pairs of benchmark runs.

    python scripts/bench_pairs.py OLD_TREE NEW_TREE --label L
    python scripts/bench_pairs.py OLD_TREE NEW_TREE --label L --claim sweep --first-seed 9101

Each run is one `perfbench/run.py --workload W --seed S --seconds T --trace 0`
of a tree's own benchmark, started in that tree, with T the `run_seconds` of
NEW_TREE's BENCHMARK.json.  A pair runs both trees on one workload and seed,
back to back; the k-th pair overall (from 0) runs OLD_TREE first when k is
even and NEW_TREE first when k is odd.  The workloads run in the order of
WORKLOADS: the one named by --claim (`runs` by default) for CLAIM_PAIRS
pairs, the count a gain claim needs, and each other for OTHER_PAIRS; each
workload runs on consecutive seeds that follow the previous workload's, from
--first-seed on.

Writes BENCH_<L>.json into the current directory: per workload and
end-to-end metric (those of NEW_TREE's BENCHMARK.json) each side's median
and quartiles, the pairs the change wins, the ratio change / parent and how
much worse the change reads against the metric's bound; each side's raw
import time (`setup.import_s` of the benchmark's record) and median op time
per op label, divided by the host slowdown as the benchmark's own op times
are; and every run's figures.  Nothing under either tree's
`perfbench/` changes; the benchmark writes its own `.bench_out/` records
there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")
WORKLOADS = ("runs", "attacks", "sweep")
CLAIM_PAIRS, OTHER_PAIRS = 10, 3


def pair_counts(claim: str) -> dict[str, int]:
    """Pairs per workload, in run order, when `claim` is the workload whose
    gain is claimed."""
    return {w: CLAIM_PAIRS if w == claim else OTHER_PAIRS for w in WORKLOADS}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per metric of `metrics` (BENCHMARK.json's end_to_end entries: name,
    unit, better, bound), the two sides' runs compared pair by pair: the
    i-th run of `parent` is paired with the i-th of `change`."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        old, new = [r[name] for r in parent], [r[name] for r in change]
        ratio = statistics.median(new) / statistics.median(old)
        out[name] = {
            "parent": quartiles(old),
            "change": quartiles(new),
            "change_wins": sum((b > a) if higher else (b < a) for a, b in zip(old, new)),
            "ties": sum(a == b for a, b in zip(old, new)),
            "ratio_change_over_parent": ratio,
            "worse_by_frac": 1.0 - ratio if higher else ratio - 1.0,
            "bound": m.get("bound"),
            "unit": m["unit"],
        }
    return out


def bench_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of `tree`: its end-to-end figures, op counts, raw
    import time and op seconds per label."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    path = os.path.join(tree, ".bench_out", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        record = json.load(fh)
    run = {"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()},
           "attempted": result["attempted"], "failed": result["failed"],
           "correct": result["correct"], "import_s": record["setup"]["import_s"]}
    # each op's [exit code, outcome, seconds, host slowdown]: seconds over slowdown, as
    # the benchmark's own op times
    run["op_s"] = {label: [op[2] / op[3] for op in ops] for label, ops in record["ops"].items()}
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", choices=WORKLOADS, default="runs",
                        help="the workload whose gain is claimed: it gets 10 pairs, the others 3")
    parser.add_argument("--first-seed", type=int, default=9101)
    parser.add_argument("--change", default="", help="one line on what the change does")
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, map(os.path.abspath, (args.old_tree, args.new_tree))))
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    pairs = pair_counts(args.claim)
    seeds, next_seed = {}, args.first_seed
    for w, n in pairs.items():
        seeds[w], next_seed = list(range(next_seed, next_seed + n)), next_seed + n
    runs = {w: {side: [] for side in SIDES} for w in pairs}
    k = 0
    for w in pairs:
        for seed in seeds[w]:
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                runs[w][side].append(bench_once(trees[side], w, seed, seconds))
                print(f"pair {k}: {w} seed {seed} {side}: ops_per_s "
                      f"{runs[w][side][-1]['ops_per_s']:.3f}", file=sys.stderr)
            k += 1

    def per_side(fn) -> dict:
        return {w: {side: fn(runs[w][side]) for side in SIDES} for w in pairs}

    def op_medians(side_runs: list[dict]) -> dict:
        labels = {label: [] for r in side_runs for label in r["op_s"]}
        for r in side_runs:
            for label, times in r["op_s"].items():
                labels[label] += times
        return {label: round(statistics.median(t), 4) for label, t in labels.items()}

    bench = {
        "label": args.label,
        "change": args.change,
        "claim": args.claim,
        "command": "python3 perfbench/run.py --workload {" + ",".join(pairs)
                   + f"}} --seed S --seconds {seconds:g} --trace 0",
        "pairs": pairs,
        "seeds": seeds,
        "order": f"pairs run in the order {', '.join(pairs)}, seeds ascending; the k-th pair "
                 "overall (from 0) runs the parent first when k is even, the change first "
                 "when k is odd",
        "host": f"{os.cpu_count()} vCPUs, {platform.system()} {platform.machine()}, Python "
                f"{platform.python_version()}, numpy {np.__version__}, BLAS pinned to one "
                "thread by the benchmark",
        "statistics": "median and quartiles (numpy.percentile 25/50/75) over the runs of each "
                      "side; change_wins counts the pairs in which the change reads better",
        "ops": per_side(lambda rs: {"attempted": sum(r["attempted"] for r in rs),
                                    "failed": sum(r["failed"] for r in rs),
                                    "all_correct": all(r["correct"] for r in rs)}),
        "end_to_end": {w: summarize(runs[w]["parent"], runs[w]["change"], metrics)
                       for w in pairs},
        "import_s": {w: summarize(runs[w]["parent"], runs[w]["change"],
                                  [{"name": "import_s", "unit": "s", "better": "lower"}])
                     ["import_s"] for w in pairs},
        "op_seconds_by_kind": per_side(op_medians),
        "runs": per_side(lambda rs: [{k: v for k, v in r.items() if k != "op_s"} for r in rs]),
    }
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for w in pairs:
        s = bench["end_to_end"][w]["ops_per_s"]
        print(f"{w}: ops_per_s {s['parent']['median']:.3f} -> {s['change']['median']:.3f} "
              f"(change wins {s['change_wins']} of {pairs[w]})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
