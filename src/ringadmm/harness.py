"""Wires configs to runs: problem assembly, experiment execution with CSV
outputs, attack driving (ground truth regenerated from the config's seeds),
and parameter sweeps.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import adversary
from .config import (ConfigError, ExperimentConfig, apply_seed, check_keys, parse_kv_text,
                     sweep_grid)
from .objectives import (
    LogisticObjective,
    OptimizerError,
    RidgeObjective,
    centralized_optimum,
    generate_logistic_data,
    generate_ridge_data,
)
from .records import SCHEMA_LINE, Transcript
from .solver import (DivergenceError, Problem, RunResult, Variant, descent_regimes,
                     kkt_residuals, run, run_batch)
from .topology import Graph, generate_graph, write_edgelist

PLANTED_STREAM = 0  # sub-stream of seeds.data holding the hidden label model


def build_objectives(cfg: ExperimentConfig) -> list:
    """One objective per agent, from the agent's own data stream
    [seeds.data, agent]; ridge objectives share one parameter stack."""
    agents = range(1, cfg.n_agents + 1)
    if cfg.problem == "ridge":
        return RidgeObjective.stack(
            [generate_ridge_data(cfg.b, cfg.p, seed=[cfg.seed_data, a]) for a in agents]
        )
    planted = [cfg.seed_data, PLANTED_STREAM]
    return [LogisticObjective(generate_logistic_data(
        cfg.b, cfg.p, planted_seed=planted, data_seed=[cfg.seed_data, a])) for a in agents]


def problem_key(cfg: ExperimentConfig) -> tuple:
    """The config fields build_problem reads: configs with equal keys have
    the same graph, data and optimum."""
    return (cfg.problem, cfg.n_agents, cfg.p, cfg.b, cfg.eta, cfg.seed_graph, cfg.seed_data)


def build_problem(cfg: ExperimentConfig) -> tuple[Graph, Problem]:
    graph = generate_graph(cfg.n_agents, cfg.eta, cfg.seed_graph)
    objectives = build_objectives(cfg)
    x_star = centralized_optimum(objectives, tol=1e-12)
    return graph, Problem(objectives=objectives, x_star=x_star)


def _check_problem(cfg: ExperimentConfig, problem: Problem) -> None:
    """ConfigError if the config does not fit its built problem: piadmm1's
    descent_floor gamma needs rho > L, and L depends on the data."""
    if (cfg.variant == Variant.PIADMM1 and cfg.gamma.kind == "floor"
            and cfg.rho <= (lipschitz := problem.lipschitz())):
        raise ConfigError(f"solver.gamma: descent_floor needs solver.rho > L, "
                          f"got rho={cfg.rho}, L={lipschitz}")


def _trace_every(cfg: ExperimentConfig) -> int:
    """Iterations between written trace rows: trace.checkpoint_every, or one
    cycle when it is 0."""
    return cfg.checkpoint_every if cfg.checkpoint_every > 0 else cfg.n_agents


def _atomic_write(path: str, writer) -> None:
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class RunSummary:
    final_accuracy: float
    comm_units: int
    kkt: tuple[float, float, float]
    regimes: dict[str, bool]
    stop_reason: str

    @property
    def diverged(self) -> bool:
        return self.stop_reason.startswith("diverged")

    def line(self) -> str:
        r = self.regimes
        return (
            f"accuracy={self.final_accuracy:.6e} comm_units={self.comm_units} "
            f"kkt_grad={self.kkt[0]:.3e} kkt_sum={self.kkt[1]:.3e} "
            f"kkt_cons={self.kkt[2]:.3e} "
            f"descent_fixed_step={'yes' if r['descent_fixed_step'] else 'no'} "
            f"descent_perturbed_step={'yes' if r['descent_perturbed_step'] else 'no'} "
            f"stop={self.stop_reason}"
            + (" DIVERGED" if self.diverged else "")
        )


GNUPLOT_TRACE_SCRIPT = """\
# accuracy against communication cost; run: gnuplot plot_trace.gp
set datafile separator ","
set logscale y
set xlabel "communication units"
set ylabel "accuracy"
set key off
plot "run_trace.csv" skip 2 using 8:3 with lines
"""


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, gnuplot: bool = False
) -> tuple[RunResult, RunSummary]:
    cfg.validate()
    graph, problem = build_problem(cfg)
    _check_problem(cfg, problem)
    result = run(problem, graph, cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is in the summary
        kkt = kkt_residuals(problem.objectives, result.x, result.y, result.z)
    summary = RunSummary(
        # a run that diverges at iteration 0 has no trace row
        final_accuracy=result.trace.final.accuracy if len(result.trace) else math.nan,
        comm_units=len(result.transcript.senders),
        kkt=kkt,
        regimes=descent_regimes(cfg.rho, problem.lipschitz(), cfg.n_agents, cfg.gamma),
        stop_reason=result.trace.stop_reason,
    )
    if out_dir is not None:
        _atomic_write(
            os.path.join(out_dir, "run_trace.csv"),
            lambda fh: result.trace.write_csv(fh, every=_trace_every(cfg)),
        )
        _atomic_write(
            os.path.join(out_dir, "transcript.csv"), result.transcript.write_csv
        )
        _atomic_write(
            os.path.join(out_dir, "graph.txt"), lambda fh: write_edgelist(graph, fh)
        )
        _atomic_write(
            os.path.join(out_dir, "summary.txt"), lambda fh: fh.write(summary.line() + "\n")
        )
        if gnuplot:
            _atomic_write(
                os.path.join(out_dir, "plot_trace.gp"),
                lambda fh: fh.write(GNUPLOT_TRACE_SCRIPT),
            )
    return result, summary


def run_attack(
    cfg: ExperimentConfig, transcript: Transcript, out_dir: str | None = None
) -> adversary.AttackReport:
    """Run the configured attack on a transcript and score it.

    The estimate uses the transcript alone.  A transcript that does not fit
    the config or the attack is a ConfigError.  For scoring, the run is
    regenerated once from the config's seeds, after the estimate (before it
    for `colluding`, whose estimate uses the colluders' final duals); if that
    fails or its transcript does not match the supplied one, truth columns
    are left empty and `unscored` says why.  The report holds exactly the
    agents written out: `exact` and `lsq` the configured agents, `backward`
    the last sender, `colluding` its target; each file has the sorted
    distinct `attack.coordinates`.
    """
    cfg.validate()
    if transcript.n_agents != cfg.n_agents:
        raise ConfigError(
            f"transcript has {transcript.n_agents} agents, config says {cfg.n_agents}"
        )
    if transcript.dim != cfg.p:
        raise ConfigError(f"transcript has dimension {transcript.dim}, config says p = {cfg.p}")
    if abs(transcript.rho - cfg.rho) > 1e-12 * max(1.0, cfg.rho):
        raise ConfigError(f"transcript rho={transcript.rho} differs from config rho={cfg.rho}")

    opts = cfg.attack
    max_iter = opts.lsqr_max_iter or None
    agents = sorted(set(opts.agents))
    coordinates = sorted(set(opts.coordinates))
    try:
        if opts.kind == "colluding":
            regen, unscored = _scoring_run(cfg, transcript)
            y_final = None
            if regen is not None:
                _, y_all = regen.history.states_at(regen.history.last_iteration + 1)
                y_final = np.delete(y_all, opts.target - 1, axis=0).sum(axis=0)
            rep = adversary.colluding_attack(transcript, target=opts.target,
                                             colluder_final_y_sum=y_final,
                                             pin=opts.pin_last_cycle, tol=opts.lsqr_tol,
                                             max_iter=max_iter)
        else:
            if opts.kind == "exact":
                rep = adversary.exact_recursion_attack(transcript, agents)
            elif opts.kind == "lsq":
                rep = adversary.lsq_attack(transcript, kkt_row=opts.kkt_row,
                                           pin_last_cycle=opts.pin_last_cycle,
                                           tol=opts.lsqr_tol, max_iter=max_iter, agents=agents)
            else:  # backward
                rep = adversary.terminal_backward_attack(transcript, eps=opts.eps)
            regen, unscored = _scoring_run(cfg, transcript)
    except adversary.AttackPreconditionError as exc:  # the transcript does not fit the attack
        raise ConfigError(str(exc)) from exc

    rep.unscored = unscored
    if regen is not None:
        adversary.score_report(rep, regen.history)
    if out_dir is not None:
        for agent in rep.agents:
            _atomic_write(
                os.path.join(out_dir, f"attack_agent{agent}.csv"),
                lambda fh, agent=agent: rep.write_csv(fh, agent, coordinates),
            )
    return rep


def _regenerate(cfg: ExperimentConfig) -> RunResult | str:
    """The run the config describes, or why the config or its optimum
    cannot give it."""
    try:
        graph, problem = build_problem(cfg)
        return run(problem, graph, cfg)
    except (ValueError, OptimizerError) as exc:  # ConfigError is a ValueError
        return f"{type(exc).__name__}: {exc}"


def _scoring_run(cfg: ExperimentConfig, transcript: Transcript) -> tuple[RunResult | None, str]:
    """The regenerated run if it reproduces `transcript` (same senders,
    tokens within 1e-12), else None and why the attack stays unscored.
    run_attack has checked N and p, so equal senders mean equal shapes."""
    regen = _regenerate(cfg)
    if isinstance(regen, str):
        return None, regen
    made = regen.transcript
    if not (np.array_equal(made.senders, transcript.senders)
            and np.allclose(made.z_values, transcript.z_values, rtol=0.0, atol=1e-12)):
        return None, "transcript did not match the config's run"
    return regen, ""


SWEEP_COLUMNS = [
    "run_index", "overrides", "seed", "k", "agent", "accuracy", "lagrangian",
    "r_primal", "r_dualstep", "r_gradsum", "comm_units", "status",
]


def parse_sweep_spec(text: str) -> tuple[dict[str, list[str]], list[int] | None]:
    """Sweep spec uses the config syntax; config.sweep_grid gives its values."""
    return sweep_grid(parse_kv_text(text))


def run_configs(cfgs: list[ExperimentConfig]) -> list[RunResult | Exception]:
    """Validate, build and run every config.  Configs with equal
    `problem_key` share one built (Graph, Problem), which no run changes;
    the sharing ends with the call.  The runs that share N, p, the x-update,
    the schedule kind and the objective kind step together as one batch
    (solver.run_batch).  Returns, in order, each run's result or the
    exception that stopped it."""
    out: list = [None] * len(cfgs)
    built: dict[tuple, tuple[Graph, Problem]] = {}
    specs: dict[int, tuple] = {}
    for i, cfg in enumerate(cfgs):
        try:
            cfg.validate()
            key = problem_key(cfg)
            if key not in built:
                built[key] = build_problem(cfg)
            graph, problem = built[key]
            _check_problem(cfg, problem)
            specs[i] = (problem, graph, cfg)
        except Exception as exc:  # the caller records the failure
            out[i] = exc
    for i, result in zip(specs, run_batch(list(specs.values()))):
        out[i] = result
    return out


def run_sweep(
    base_cfg_text: str, sweep_text: str, out_path: str, quiet: bool = True
) -> int:
    """Cartesian grid x seeds, run through run_configs; one long-format CSV
    row per checkpoint.

    An unknown key in the spec or the base config, or a bad seed, raises
    ConfigError before any point is built.  Failures of individual grid
    points are recorded in their rows' status column and the sweep
    continues.  Returns the number of failed runs.
    """
    grid, seeds = parse_sweep_spec(sweep_text)
    base_kv = parse_kv_text(base_cfg_text)
    check_keys(base_kv.keys() | grid.keys())  # else every point fails alike
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys))) if keys else [()]
    points: list[tuple] = []  # (overrides, seed, config or why it has none)
    for combo in combos:
        for seed in seeds if seeds is not None else [None]:
            kv = dict(base_kv)
            kv.update(dict(zip(keys, combo)))
            overrides = ";".join(f"{k}={v}" for k, v in zip(keys, combo))
            try:
                cfg = ExperimentConfig.from_mapping(kv)
                if seed is not None:
                    apply_seed(cfg, seed)
            except Exception as exc:  # keep sweeping; record the failure
                cfg = exc
            points.append((overrides, seed, cfg))
    parsed = [i for i, point in enumerate(points) if isinstance(point[2], ExperimentConfig)]
    results = dict(zip(parsed, run_configs([points[i][2] for i in parsed])))

    failures = 0
    rows: list[list] = []
    for run_index, (overrides, seed, cfg) in enumerate(points):
        result = results.get(run_index, cfg)
        seed_col = "" if seed is None else seed
        if isinstance(result, RunResult) and not len(result.trace):  # diverged at iteration 0
            result = DivergenceError(result.trace.stop_reason.removeprefix("diverged: "))
        if isinstance(result, Exception):
            failures += 1
            rows.append([
                run_index, overrides, seed_col, "", "", "", "", "", "", "", "",
                f"error:{type(result).__name__}:{result}",
            ])
            if not quiet:
                print(f"sweep point {overrides} seed={seed} failed: {result}")
            continue
        for k in result.trace.checkpoints(_trace_every(cfg)).tolist():
            rec = result.trace.record(k)
            rows.append([
                run_index, overrides, seed_col, rec.k, rec.agent,
                repr(rec.accuracy), repr(rec.aug_lagrangian),
                repr(rec.r_primal), repr(rec.r_dualstep),
                repr(rec.r_gradsum), rec.comm_units, "ok",
            ])

    def write(fh):
        fh.write(SCHEMA_LINE + "\n")
        w = csv.writer(fh)
        w.writerow(SWEEP_COLUMNS)
        w.writerows(rows)

    _atomic_write(out_path, write)
    return failures
