#!/usr/bin/env python3
"""Eavesdropper reconstruction quality against the solver variants.

For each variant this runs one experiment (the three run together through
the harness's batched engine, `run_configs`), lets the eavesdropper rebuild
agent states from the token transcript (exact inversion for the
deterministic start, least squares otherwise), and writes truth-versus-
estimate trajectories per tracked agent so the privacy gap can be plotted.

Example:
    python scripts/privacy_attack_experiment.py --out results/privacy \
        --agents 100 --eta 0.3 --iterations 2000 --track 1
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from ringadmm import adversary
from ringadmm.config import ExperimentConfig, apply_seed
from ringadmm.harness import run_configs
from ringadmm.solver import GammaSpec, InitSpec, Variant, XUpdateMode

SETUPS = {
    "iadmm": dict(variant=Variant.IADMM, init=InitSpec.zeros()),
    "piadmm1": dict(variant=Variant.PIADMM1, init=InitSpec.uniform(0, 100),
                    gamma=GammaSpec.uniform(0.9, 1.1)),
    "piadmm2": dict(variant=Variant.PIADMM2, init=InitSpec.uniform(0, 100),
                    sigma=1e-3),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="privacy")
    ap.add_argument("--problem", choices=("ridge", "logistic"), default="ridge")
    ap.add_argument("--agents", type=int, default=100)
    ap.add_argument("--eta", type=float, default=0.3)
    ap.add_argument("--rho", type=float, default=10.0)
    ap.add_argument("--iterations", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--track", type=int, nargs="+", default=[1],
                    help="agent ids whose trajectories are exported")
    args = ap.parse_args()

    cfgs = {}
    for name, extra in SETUPS.items():
        cfg = ExperimentConfig()
        cfg.problem = args.problem
        if args.problem == "logistic":
            cfg.x_update = XUpdateMode.FIRST_ORDER
            cfg.rho = 1.0
        cfg.n_agents = args.agents
        cfg.eta = args.eta
        if args.problem == "ridge":
            cfg.rho = args.rho
        for key, val in extra.items():
            setattr(cfg, key, val)
        cfg.max_iters = args.iterations + 1
        cfg.stop_eps = 0.0
        cfgs[name] = apply_seed(cfg, args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the attacks read the transcript and history alone: fill the fewest trace rows
    results = run_configs(list(cfgs.values()), every=[c.max_iters for c in cfgs.values()])
    for name, result in zip(cfgs, results):
        if isinstance(result, Exception):
            raise result
        if name == "iadmm":
            report = adversary.exact_recursion_attack(result.transcript)
        else:
            report = adversary.lsq_attack(result.transcript, agents=args.track)
        adversary.score_report(report, result.history)

        for agent in args.track:
            path = out_dir / f"{name}_agent{agent}.csv"
            with open(path, "w") as fh:
                report.write_csv(fh, agent)
            err_x = float(np.max(report.err_x[agent][-1]))
            err_y0 = float(np.max(report.err_y[agent][0]))
            print(f"{name}: agent {agent} final x error {err_x:.3e}, "
                  f"initial y error {err_y0:.3e} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
