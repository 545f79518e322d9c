"""Command-line interface.

Subcommands: run, attack, sweep, verify.
Exit codes: 0 success, 1 validation error, 2 runtime failure, 3 verify-suite
failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig
from .records import Transcript, TranscriptError


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    with open(path) as fh:
        cfg = ExperimentConfig.from_file(fh)
    if seed_override is not None:
        cfg.seed_graph = seed_override + 1
        cfg.seed_data = seed_override + 2
        cfg.seed_solver = seed_override + 3
        cfg.seed_attack = seed_override + 4
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    from .harness import run_experiment

    cfg = _load_config(args.config, args.seed_override)
    result, summary = run_experiment(cfg, out_dir=args.out, gnuplot=args.gnuplot)
    if not args.quiet:
        print(summary.line())
    if result.trace.diverged:
        return 2
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    from .harness import run_attack

    cfg = _load_config(args.config, args.seed_override)
    with open(args.transcript) as fh:
        transcript = Transcript.read_csv(fh)
    reports = run_attack(cfg, transcript, out_dir=args.out)
    if not args.quiet:
        for agent, rep in sorted(reports.items()):
            scored = agent in rep.err_x
            line = f"attack={rep.kind} agent={agent} dims={rep.dims}"
            if scored:
                line += (
                    f" max_err_x={rep.err_x[agent].max():.3e}"
                    f" max_err_y={rep.err_y[agent].max():.3e}"
                )
            else:
                line += " (unscored: transcript did not match the config's run)"
            if not rep.lsqr_converged:
                norms = ",".join(f"{r:.3e}" for r in rep.residual_norms)
                line += f" lsqr_converged=no residual_norms={norms}"
            print(line)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import run_sweep

    with open(args.config) as fh:
        base_text = fh.read()
    with open(args.sweep) as fh:
        sweep_text = fh.read()
    out_path = (args.out or ".") + "/sweep.csv"
    failures = run_sweep(base_text, sweep_text, out_path, quiet=args.quiet)
    if not args.quiet:
        print(f"sweep written to {out_path} ({failures} failed runs)")
    return 0 if failures == 0 else 2


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all

    results = run_all(quiet=args.quiet)
    failed = [r for r in results if not r.ok]
    if not args.quiet:
        total = sum(r.seconds for r in results)
        print(f"{len(results) - len(failed)}/{len(results)} checks passed in {total:.1f}s")
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringadmm",
        description="Token-passing incremental consensus solver and its attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        if config_required:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory for CSVs")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace every configured seed, derived from this value")
        p.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="run one configured experiment")
    common(p_run)
    p_run.add_argument("--gnuplot", action="store_true",
                       help="also emit a gnuplot script for the trace CSV")
    p_run.set_defaults(fn=cmd_run)

    p_att = sub.add_parser("attack", help="attack a recorded transcript")
    common(p_att)
    p_att.add_argument("--transcript", required=True, help="transcript CSV path")
    p_att.set_defaults(fn=cmd_attack)

    p_sw = sub.add_parser("sweep", help="grid sweep over config overrides")
    common(p_sw)
    p_sw.add_argument("--sweep", required=True, help="sweep spec file")
    p_sw.set_defaults(fn=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--quiet", action="store_true")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TranscriptError as exc:
        print(f"transcript error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
