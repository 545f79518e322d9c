"""Command-line interface.

Subcommands: run, attack, sweep, verify.
Exit codes: 0 success, 1 validation error or unreadable input file, 2 runtime
failure, 3 verify-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import ConfigError, ExperimentConfig, apply_seed
from .records import Transcript, TranscriptError


class UnreadableFile(Exception):
    """An input file that exists but cannot be read as text."""


def _read(path: str, parse=lambda fh: fh.read()):
    """parse(fh) of the input file `path`: every input file is read here.  A
    missing file stays a FileNotFoundError; any other failure to read it is
    an UnreadableFile naming it."""
    try:
        with open(path) as fh:
            return parse(fh)
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableFile(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    cfg = _read(path, ExperimentConfig.from_file)
    return cfg if seed_override is None else apply_seed(cfg, seed_override)


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
    transcript = _read(args.transcript, Transcript.read_csv)
    rep = run_attack(cfg, transcript, out_dir=args.out)
    if not args.quiet:
        for agent in rep.agents:
            line = f"attack={rep.kind} agent={agent} dims={rep.dims}"
            if agent in rep.err_x:
                line += (
                    f" max_err_x={rep.err_x[agent].max():.3e}"
                    f" max_err_y={rep.err_y[agent].max():.3e}"
                )
            else:
                line += f" unscored: {rep.unscored}"
            if not rep.lsqr_converged:
                norms = ",".join(f"{r:.3e}" for r in rep.residual_norms)
                line += f" lsqr_converged=no residual_norms={norms}"
            if rep.init_assumption_violated:
                line += " init_assumption_violated=yes"
            print(line)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import run_sweep

    base_text, sweep_text = _read(args.config), _read(args.sweep)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ringadmm",
        description="Token-passing incremental consensus solver and its attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed_override: bool = True) -> None:
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory for CSVs")
        if seed_override:  # a sweep re-seeds through its spec's `seed` key
            p.add_argument("--seed-override", type=int, default=None,
                           help="replace every configured seed, derived from this value")
        p.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="run one configured experiment")
    common(p_run)
    p_run.add_argument("--gnuplot", action="store_true",
                       help="also emit a gnuplot script for the trace CSV")

    p_att = sub.add_parser("attack", help="attack a recorded transcript")
    common(p_att)
    p_att.add_argument("--transcript", required=True, help="transcript CSV path")

    p_sw = sub.add_parser("sweep", help="grid sweep over config overrides")
    common(p_sw, seed_override=False)
    p_sw.add_argument("--sweep", required=True, help="sweep spec file")

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a cmd_* replaced after the first call still runs
    commands = {"run": cmd_run, "attack": cmd_attack, "sweep": cmd_sweep, "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TranscriptError as exc:
        print(f"transcript error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 1
    except UnreadableFile as exc:
        print(f"unreadable file: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
