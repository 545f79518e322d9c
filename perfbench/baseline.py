"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload and metric this gives the median over the seeds, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles as a share of the median.  Untraced runs
give the end-to-end metrics; `--trace-seeds` traced runs give the
per-layer medians.  Runs go one at a time, so they do not disturb each
other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(environment, result) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            env, result = bench(workload, seed, seconds, 0)
            runs.append(result)
            summary["environment"] = {k: v for k, v in env.items()
                                      if k not in ("workload", "seed", "trace")}
            print(workload, seed, runs[-1]["attempted"], runs[-1]["failed"],
                  {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": summarise(runs)}
        for name, s in entry["end_to_end"].items():
            print(f"  {name:20s} median {s['median']:.5g} spread {s['spread'] or 0:.1%}")
        if args.trace_seeds:
            traced = [bench(workload, seed, seconds, 1)[1] for seed in args.trace_seeds]
            entry["per_layer"] = {
                k: {"unit": v["unit"],
                    "median": statistics.median(r["metrics"][k]["value"] for r in traced)}
                for k, v in traced[0]["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
