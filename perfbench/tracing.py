"""Per-layer spans recorded from outside the ringadmm package.

`Tracer.install` replaces each traced name where its caller looks it up
(module globals for functions imported by name, class attributes for
methods) with a wrapper that records a span; `uninstall` puts the originals
back.  Calls made once per iteration or per agent are "hot": instead of a
span each, they add to a (calls, total, self) aggregate under their nearest
enclosing span, so the trace stays small.  Spans are kept in memory.

A span's self time is its duration minus the time its child spans and hot
calls cover.  Every traced name belongs to one layer, the package module
that owns the code: the part of the span name before the dot.  Untraced code
that a traced call runs counts in that call's self time, so it is charged to
the caller's layer.  `cli.main` is the whole op; the part of it outside
every narrower span, plus the benchmark's own loop, is `trace.uncovered_s`.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from importlib import import_module


def _bytes(args, result, exc):
    # writers get a fresh file from the harness, so its end offset is its size
    return {"bytes": args[1].tell()} if exc is None else {}


def _lsqr(args, result, exc):
    if exc is not None:
        return {}
    return {"iters": result.iterations, "converged": bool(result.converged)}


def _nnz(args, result, exc):
    return {} if exc is not None else {"nnz": len(result.systems[0].vals)}


def _failed(args, result, exc):
    return {"failed": exc is not None}


# (module, attribute looked up there, span name, hot, extra-attributes hook)
TARGETS = [
    ("ringadmm.cli", "main", "cli.main", False, None),
    ("ringadmm.cli", "build_parser", "cli.parser", False, None),
    ("ringadmm.cli", "cmd_run", "cli.command", False, None),
    ("ringadmm.cli", "cmd_attack", "cli.command", False, None),
    ("ringadmm.cli", "cmd_sweep", "cli.command", False, None),
    ("ringadmm.config", "ExperimentConfig.from_file", "config.from_file", False, None),
    ("ringadmm.config", "parse_kv_text", "config.parse", False, None),
    ("ringadmm.harness", "parse_kv_text", "config.parse", False, None),
    ("ringadmm.config", "ExperimentConfig.from_mapping", "config.from_mapping", False, None),
    ("ringadmm.config", "ExperimentConfig.validate", "config.validate", False, None),
    ("ringadmm.config", "ExperimentConfig.to_text", "config.to_text", False, None),
    ("ringadmm.harness", "run_experiment", "harness.run_experiment", False, None),
    ("ringadmm.harness", "run_attack", "harness.run_attack", False, None),
    ("ringadmm.harness", "run_sweep", "harness.run_sweep", False, None),
    ("ringadmm.harness", "build_problem", "harness.build_problem", False, None),
    ("ringadmm.harness", "_regenerate", "harness.regenerate", False, None),
    ("ringadmm.harness", "generate_graph", "topology.generate_graph", False, None),
    ("ringadmm.harness", "write_edgelist", "topology.write_edgelist", False, None),
    ("ringadmm.solver", "next_agent", "topology.next_agent", True, None),
    ("ringadmm.harness", "generate_ridge_data", "objectives.data", True, None),
    ("ringadmm.harness", "generate_logistic_data", "objectives.data", True, None),
    ("ringadmm.objectives", "RidgeObjective.__init__", "objectives.data", True, None),
    ("ringadmm.objectives", "LogisticObjective.__init__", "objectives.data", True, None),
    ("ringadmm.harness", "centralized_optimum", "objectives.optimum", False, _failed),
    ("ringadmm.objectives", "RidgeObjective.prox", "objectives.prox", True, None),
    ("ringadmm.objectives", "RidgeObjective.gradient", "objectives.gradient", True, None),
    ("ringadmm.objectives", "LogisticObjective.gradient", "objectives.gradient", True, None),
    ("ringadmm.objectives", "solve_dense", "linalg.solve_dense", True, None),
    ("ringadmm.adversary", "lsqr", "linalg.lsqr", False, _lsqr),
    ("ringadmm.harness", "run", "solver.run", False, None),
    ("ringadmm.solver", "Simulation.run", "solver.loop", False, None),
    ("ringadmm.solver", "Simulation.step", "solver.step", True, None),
    ("ringadmm.harness", "kkt_residuals", "solver.kkt_residuals", False, None),
    ("ringadmm.harness", "descent_regimes", "solver.descent_regimes", False, None),
    ("ringadmm.records", "Transcript.write_csv", "records.transcript_write", False, _bytes),
    ("ringadmm.records", "RunTrace.write_csv", "records.trace_write", False, _bytes),
    ("ringadmm.records", "Transcript.read_csv", "records.transcript_read", False, None),
    ("ringadmm.records", "StateHistory.trajectory", "records.history", False, None),
    ("ringadmm.records", "StateHistory.states_at", "records.history", False, None),
    ("ringadmm.adversary", "build_ls_system", "adversary.system_build", False, _nnz),
    ("ringadmm.adversary", "build_colluding_system", "adversary.system_build", False, _nnz),
    ("ringadmm.adversary", "exact_recursion_attack", "adversary.recursion", False, None),
    ("ringadmm.adversary", "terminal_backward_attack", "adversary.recursion", False, None),
    ("ringadmm.adversary", "lsq_attack", "adversary.attack", False, None),
    ("ringadmm.adversary", "colluding_attack", "adversary.attack", False, None),
    ("ringadmm.adversary", "score_report", "adversary.score", False, None),
    ("ringadmm.adversary", "AttackReport.write_csv", "adversary.report_write", False, None),
]

# layer -> the metric holding its self time per op
LAYER_SELF = {layer: f"{layer}.self_s" for layer in
              ["cli", "config", "harness", "objectives", "topology", "solver", "records",
               "adversary", "linalg"]}
LAYER_SELF["config"] = "config.load_s"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s, extra)
        self.aggs: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, total, self]
        self._stack: list[list] = []  # [id children attach to, start, child seconds]
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    def install(self) -> None:
        for module, path, name, hot, extra in TARGETS:
            owner = import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, hot, extra))
            else:
                new = self._wrap(raw, name, hot, extra)
            setattr(owner, attr, new)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name, hot, extra):
        stack, spans, aggs, ids, clock = self._stack, self.spans, self.aggs, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            frame = [parent if hot else next(ids), clock(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                if hot:
                    agg = aggs.get((parent, name))
                    if agg is None:
                        aggs[(parent, name)] = [1, dur, dur - frame[2]]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                        agg[2] += dur - frame[2]
                else:
                    spans.append((frame[0], parent, name, frame[1], end, dur - frame[2],
                                  extra(args, result, exc) if extra else None))

        return traced

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, name, start, end, self_s, _ in self.spans:
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
        for (_, name), (calls, total, self_s) in self.aggs.items():
            t = out[name]
            t[0] += calls
            t[1] += total
            t[2] += self_s
        return out

    def extras(self, name: str, key: str) -> list:
        return [s[6][key] for s in self.spans if s[2] == name and s[6] and key in s[6]]

    def children_named(self, parent_name: str, name: str) -> int:
        parents = {s[0] for s in self.spans if s[2] == parent_name}
        return sum(1 for s in self.spans if s[2] == name and s[1] in parents)


def layer_metrics(tracer: Tracer, n_ops: int, op_wall_s: float,
                  slowdown: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures for the traced ops; times and counts are per op.
    Times are divided by the host slowdown measured around the ops."""
    tot = tracer.totals()

    def per_op(x: float) -> float:
        return x / n_ops

    def calls(name):
        return tot[name][0] if name in tot else 0

    def total(name):
        return tot[name][1] if name in tot else 0.0

    def self_s(name):
        return tot[name][2] if name in tot else 0.0

    def per_call_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    # the cli.main span is the whole op: its self time (argument parsing,
    # dispatch) is what no narrower span covers and goes to trace.uncovered_s
    layer_self = {layer: sum(v[2] for k, v in tot.items()
                             if k.split(".")[0] == layer and k != "cli.main")
                  for layer in LAYER_SELF}
    # prox, gradient and next_agent also run outside step (the optimum
    # oracle, KKT residuals); subtract only the calls made inside the loop
    loops = {s[0] for s in tracer.spans if s[2] == "solver.loop"}
    step_children = sum(
        agg[1] for (parent, name), agg in tracer.aggs.items()
        if parent in loops
        and name in ("objectives.prox", "objectives.gradient", "topology.next_agent")
    )
    lsqr_iters = sum(tracer.extras("linalg.lsqr", "iters"))
    m = {
        **{name: (per_op(layer_self[layer]), "s/op") for layer, name in LAYER_SELF.items()},
        "harness.regen_runs": (per_op(tracer.children_named("harness.regenerate",
                                                            "solver.run")), "count/op"),
        "objectives.data_s": (per_op(total("objectives.data")), "s/op"),
        "objectives.optimum_s": (per_op(total("objectives.optimum")), "s/op"),
        "objectives.optimum_calls": (per_op(calls("objectives.optimum")), "count/op"),
        "objectives.optimum_failed": (per_op(sum(tracer.extras("objectives.optimum",
                                                               "failed"))), "count/op"),
        "objectives.prox_us": (per_call_us("objectives.prox"), "us/call"),
        "objectives.gradient_us": (per_call_us("objectives.gradient"), "us/call"),
        "topology.graph_s": (per_op(total("topology.generate_graph")), "s/op"),
        "topology.next_agent_us": (per_call_us("topology.next_agent"), "us/call"),
        "solver.iters": (per_op(calls("solver.step")), "count/op"),
        "solver.run_s": (per_op(total("solver.run")), "s/op"),
        "solver.step_us": (per_call_us("solver.step"), "us/call"),
        "solver.step_self_us": (
            1e6 * (total("solver.step") - step_children) / calls("solver.step")
            if calls("solver.step") else 0.0, "us/call"),
        "solver.assemble_s": (per_op(self_s("solver.loop")), "s/op"),
        "records.transcript_write_s": (per_op(total("records.transcript_write")), "s/op"),
        "records.trace_write_s": (per_op(total("records.trace_write")), "s/op"),
        "records.transcript_read_s": (per_op(total("records.transcript_read")), "s/op"),
        "records.bytes_written": (per_op(sum(tracer.extras("records.transcript_write", "bytes"))
                                         + sum(tracer.extras("records.trace_write", "bytes"))),
                                  "B/op"),
        "adversary.system_build_s": (per_op(total("adversary.system_build")), "s/op"),
        "adversary.system_nnz": (per_op(sum(tracer.extras("adversary.system_build", "nnz"))),
                                 "count/op"),
        "adversary.recursion_s": (per_op(total("adversary.recursion")), "s/op"),
        "adversary.attack_self_s": (per_op(self_s("adversary.attack")), "s/op"),
        "adversary.score_s": (per_op(total("adversary.score")), "s/op"),
        "adversary.report_write_s": (per_op(total("adversary.report_write")), "s/op"),
        "linalg.solve_dense_us": (per_call_us("linalg.solve_dense"), "us/call"),
        "linalg.lsqr_s": (per_op(total("linalg.lsqr")), "s/op"),
        "linalg.lsqr_iters": (per_op(lsqr_iters), "count/op"),
        "linalg.lsqr_us_per_iter": (1e6 * total("linalg.lsqr") / lsqr_iters
                                    if lsqr_iters else 0.0, "us/iter"),
        "linalg.lsqr_unconverged": (per_op(sum(1 for c in tracer.extras("linalg.lsqr",
                                                                        "converged")
                                                if not c)), "count/op"),
        "trace.op_wall_s": (per_op(op_wall_s), "s/op"),
        "trace.uncovered_s": (per_op(op_wall_s - sum(layer_self.values())), "s/op"),
    }
    return {name: (value / slowdown if unit in ("s/op", "us/call", "us/iter") else value, unit)
            for name, (value, unit) in m.items()}

