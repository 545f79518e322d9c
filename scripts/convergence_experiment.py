#!/usr/bin/env python3
"""Accuracy-versus-communication comparison across solver variants.

Runs the ring-order solver, its randomized/perturbed variants, and the
random-walk baseline on the same synthetic problems over a grid of network
settings, and writes one long-format CSV suitable for plotting accuracy
against communication units.  The grid runs through the harness's batched
engine (`run_configs`), which steps runs of equal N and schedule together.

Example:
    python scripts/convergence_experiment.py --out results/convergence.csv \
        --agents 50 --etas 0.3 0.5 --cycles 100 --seeds 3
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ringadmm.config import ExperimentConfig, apply_seed
from ringadmm.harness import run_configs
from ringadmm.solver import GammaSpec, InitSpec, Variant, XUpdateMode

VARIANTS = {
    Variant.IADMM: dict(init=InitSpec.zeros()),
    Variant.IADMM_RANDINIT: dict(init=InitSpec.uniform(0, 100)),
    Variant.PIADMM1: dict(init=InitSpec.uniform(0, 100),
                          gamma=GammaSpec.uniform(0.9, 1.1)),
    Variant.PIADMM2: dict(init=InitSpec.uniform(0, 100), sigma=1e-3),
    Variant.WADMM_BASELINE: dict(init=InitSpec.zeros()),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="convergence.csv")
    ap.add_argument("--problem", choices=("ridge", "logistic"), default="ridge")
    ap.add_argument("--agents", type=int, nargs="+", default=[50])
    ap.add_argument("--etas", type=float, nargs="+", default=[0.3])
    ap.add_argument("--rho", type=float, default=10.0)
    ap.add_argument("--cycles", type=int, default=100)
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()

    cfgs = []
    for n in args.agents:
        for eta in args.etas:
            for seed in range(args.seeds):
                for variant, extra in VARIANTS.items():
                    cfg = ExperimentConfig()
                    cfg.problem = args.problem
                    if args.problem == "logistic":
                        cfg.x_update = XUpdateMode.FIRST_ORDER
                    cfg.n_agents = n
                    cfg.eta = eta
                    cfg.rho = args.rho
                    cfg.variant = variant
                    for key, val in extra.items():
                        setattr(cfg, key, val)
                    cfg.max_iters = args.cycles * n
                    cfg.stop_eps = 0.0
                    cfgs.append((seed, apply_seed(cfg, seed)))

    rows = []
    # only every N-th trace row and the last are read: fill only those
    results = run_configs([cfg for _, cfg in cfgs], every=[cfg.n_agents for _, cfg in cfgs])
    for (seed, cfg), result in zip(cfgs, results):
        if isinstance(result, Exception):
            raise result
        for rec in result.trace.records[:: cfg.n_agents]:
            rows.append([
                args.problem, cfg.n_agents, cfg.eta, cfg.variant.value, seed,
                rec.comm_units, repr(rec.accuracy),
                repr(rec.aug_lagrangian), repr(rec.r_primal),
            ])
        print(f"N={cfg.n_agents} eta={cfg.eta} seed={seed} {cfg.variant.value}: "
              f"final accuracy {result.trace.final.accuracy:.3e}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write("#schema=1\n")
        w = csv.writer(fh)
        w.writerow(["problem", "n_agents", "eta", "variant", "seed",
                    "comm_units", "accuracy", "lagrangian", "r_primal"])
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
