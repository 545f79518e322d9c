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
