"""The benchmark's tracer (perfbench/tracing.py) wraps ringadmm names where
their callers look them up.  A refactor that moves one of them breaks
`perfbench/run.py --trace 1`; this test finds it first."""

import importlib.util
import os
from importlib import import_module

from ringadmm.config import ExperimentConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def raw(module: str, path: str):
    """The object the tracer replaces: a class's own attribute, or a module's."""
    owner = import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_target_and_restores_the_originals():
    tracing = load_tracing()
    targets = [(module, path) for module, path, *_ in tracing.TARGETS]
    originals = [raw(*t) for t in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert [t for t, old in zip(targets, originals) if raw(*t) is old] == []
        ExperimentConfig.from_text("p = 3\n")
    finally:
        tracer.uninstall()
    assert [t for t, old in zip(targets, originals) if raw(*t) is not old] == []
    assert {"config.from_mapping", "config.validate"} <= set(tracer.totals())


def test_tracer_hooks_read_the_attack_results():
    """The `extra` hooks run inside the wrapper's `finally`: one that no longer
    finds its field would fail every traced attack op."""
    from ringadmm.harness import build_problem, run, run_attack

    cfg = ExperimentConfig.from_text(
        "network.n_agents = 5\nnetwork.eta = 1.0\nsolver.variant = iadmm_randinit\n"
        "solver.init = uniform:-1,1\nsolver.max_iters = 40\nattack.agents = 1,2\n")
    graph, problem = build_problem(cfg)
    transcript = run(problem, graph, cfg).transcript
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for kind in ("lsq", "colluding", "exact"):
            cfg.attack.kind = kind
            run_attack(cfg, transcript)
    finally:
        tracer.uninstall()
    nnz = tracer.extras("adversary.system_build", "nnz")
    iters = tracer.extras("linalg.lsqr", "iters")
    assert len(nnz) == 2 and all(n > 0 for n in nnz)
    assert len(iters) == 2 * cfg.p and all(i > 0 for i in iters)
