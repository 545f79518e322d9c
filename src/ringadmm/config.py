"""Experiment configuration: a flat ``key = value`` text format with dotted
section prefixes, chosen so configs diff cleanly and need no parser
dependency.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import IO, Any, Callable, NamedTuple

from .solver import GammaSpec, InitSpec, SolverConfig, Variant, XUpdateMode
from .topology import target_edge_count


class ConfigError(ValueError):
    """Invalid configuration; message lists every offending field."""


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parser(convert: Callable[[str], Any], error: str) -> Callable[[str, str], Any]:
    """A (key, text) parser: convert(text), or a ConfigError from the `error`
    template, which may name {key} and {text}."""
    def parse(key: str, text: str):
        try:
            return convert(text)
        except (ValueError, KeyError) as exc:
            raise ConfigError(error.format(key=key, text=repr(text))) from exc
    return parse


def _parse_str(key: str, text: str) -> str:
    return text


_parse_int = _parser(int, "{key}: expected integer, got {text}")
_parse_float = _parser(float, "{key}: expected number, got {text}")
_parse_bool = _parser(lambda text: _BOOL[text.lower()], "{key}: expected boolean, got {text}")
_parse_ints = _parser(lambda text: tuple(int(tok) for tok in text.split(",") if tok.strip()),
                      "{key}: expected comma-separated ints")
_parse_variant = _parser(Variant, "{key}: unknown variant {text} "
                         f"(expected one of {[v.value for v in Variant]})")
_parse_x_update = _parser(XUpdateMode, "{key}: unknown mode {text}")


def _parse_gamma(key: str, text: str) -> GammaSpec:
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    try:
        if kind == "constant":
            return GammaSpec.constant(float(rest))
        if kind == "uniform":
            lo, hi = (float(tok) for tok in rest.split(","))
            return GammaSpec.uniform(lo, hi)
        if kind == "descent_floor":
            return GammaSpec.floor(float(rest))
    except ValueError as exc:
        raise ConfigError(f"bad gamma spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown gamma kind {kind!r} (constant|uniform|descent_floor)")


def _format_gamma(spec: GammaSpec) -> str:
    if spec.kind == "constant":
        return f"constant:{spec.value!r}"
    if spec.kind == "uniform":
        return f"uniform:{spec.lo!r},{spec.hi!r}"
    return f"descent_floor:{spec.margin!r}"


def _parse_init(key: str, text: str) -> InitSpec:
    if text.strip() == "zeros":
        return InitSpec.zeros()
    kind, _, rest = text.partition(":")
    if kind.strip() == "uniform":
        try:
            lo, hi = (float(tok) for tok in rest.split(","))
            return InitSpec.uniform(lo, hi)
        except ValueError as exc:
            raise ConfigError(f"bad init spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown init spec {text!r} (zeros|uniform:lo,hi)")


def _format_init(spec: InitSpec) -> str:
    if spec.kind == "zeros":
        return "zeros"
    return f"uniform:{spec.lo!r},{spec.hi!r}"


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


def _format_ints(values: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in values)


def _sweep_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _sweep_specs(text: str) -> list[str]:
    """Spec values keep their commas: a token that does not begin a spec
    (a kind prefix, or `zeros`) continues the one before it."""
    values: list[str] = []
    for tok in _sweep_list(text):
        starts = tok.startswith(("constant:", "uniform:", "descent_floor:")) or tok == "zeros"
        if values and not starts:
            values[-1] += "," + tok
        else:
            values.append(tok)
    return values


class _Key(NamedTuple):
    """One config key: where its value goes and how it reads and prints."""

    name: str  # as written in config files; "attack." keys set AttackOptions
    attr: str  # the ExperimentConfig or AttackOptions attribute
    parse: Callable[[str, str], Any]  # (key, text) -> value, or ConfigError
    format: Callable[[Any], str]
    sweep: Callable[[str], list[str]] = _sweep_list  # a sweep value -> its points


# Every config key once, in file order; to_mapping, from_mapping and the
# sweep grammar all read this table.
KEYS = (
    _Key("problem", "problem", _parse_str, str),
    _Key("p", "p", _parse_int, str),
    _Key("b", "b", _parse_int, str),
    _Key("network.n_agents", "n_agents", _parse_int, str),
    _Key("network.eta", "eta", _parse_float, repr),
    _Key("solver.variant", "variant", _parse_variant, attrgetter("value")),
    _Key("solver.x_update", "x_update", _parse_x_update, attrgetter("value")),
    _Key("solver.rho", "rho", _parse_float, repr),
    _Key("solver.gamma", "gamma", _parse_gamma, _format_gamma, _sweep_specs),
    _Key("solver.sigma", "sigma", _parse_float, repr),
    _Key("solver.init", "init", _parse_init, _format_init, _sweep_specs),
    _Key("solver.max_iters", "max_iters", _parse_int, str),
    _Key("solver.stop_eps", "stop_eps", _parse_float, repr),
    _Key("seeds.graph", "seed_graph", _parse_int, str),
    _Key("seeds.data", "seed_data", _parse_int, str),
    _Key("seeds.solver", "seed_solver", _parse_int, str),
    _Key("seeds.attack", "seed_attack", _parse_int, str),
    _Key("trace.checkpoint_every", "checkpoint_every", _parse_int, str),
    _Key("attack.kind", "kind", _parse_str, str),
    _Key("attack.kkt_row", "kkt_row", _parse_bool, _format_bool),
    _Key("attack.pin_last_cycle", "pin_last_cycle", _parse_bool, _format_bool),
    _Key("attack.agents", "agents", _parse_ints, _format_ints),
    _Key("attack.coordinates", "coordinates", _parse_ints, _format_ints),
    _Key("attack.eps", "eps", _parse_float, repr),
    _Key("attack.target", "target", _parse_int, str),
    _Key("attack.lsqr_tol", "lsqr_tol", _parse_float, repr),
    _Key("attack.lsqr_max_iter", "lsqr_max_iter", _parse_int, str),
)
_BY_NAME = {key.name: key for key in KEYS}


def check_keys(keys) -> None:
    """Raise a ConfigError naming every key that is not in KEYS."""
    unknown = set(keys) - _BY_NAME.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def parse_value(name: str, text: str) -> Any:
    """The value of key `name` (one of KEYS) read from `text`, or the
    ConfigError that reading it raises, which ExperimentConfig.from_parsed
    raises in turn."""
    try:
        return _BY_NAME[name].parse(name, text)
    except ConfigError as exc:  # the config that sets it fails
        return exc


@dataclass
class AttackOptions:
    kind: str = "lsq"               # lsq | exact | backward | colluding
    kkt_row: bool = True
    pin_last_cycle: bool = True
    agents: tuple[int, ...] = (1,)
    coordinates: tuple[int, ...] = (1,)
    eps: float = 1e-4               # backward attack convergence declaration
    target: int = 1                 # colluding attack target
    lsqr_tol: float = 1e-10
    lsqr_max_iter: int = 0          # 0 means 10 * (rows + cols)


@dataclass
class ExperimentConfig(SolverConfig):
    """Everything one config file sets: the solver's settings plus the
    problem, the network, the other seeds, the trace cadence and the attack.
    SolverConfig's checks run at construction and when a run starts;
    validate() checks every key."""

    problem: str = "ridge"          # ridge | logistic
    p: int = 2
    b: int = 30
    n_agents: int = 20
    eta: float = 0.3
    seed_graph: int = 1
    seed_data: int = 2
    seed_attack: int = 4
    checkpoint_every: int = 0       # trace CSV row cadence; 0 means one per cycle
    attack: AttackOptions = field(default_factory=AttackOptions)

    def validate(self) -> None:
        numbers = {  # network.eta is range-checked below, which rejects nan and inf too
            "solver.rho": [self.rho], "solver.sigma": [self.sigma],
            "solver.gamma": [self.gamma.value, self.gamma.lo, self.gamma.hi, self.gamma.margin],
            "solver.init": [self.init.lo, self.init.hi], "solver.stop_eps": [self.stop_eps],
            "attack.eps": [self.attack.eps], "attack.lsqr_tol": [self.attack.lsqr_tol],
        }
        errors = [f"{key}: must be finite" for key, values in numbers.items()
                  if not all(map(math.isfinite, values))]
        if self.problem not in ("ridge", "logistic"):
            errors.append(f"problem: unknown problem {self.problem!r}")
        if self.p < 1:
            errors.append("p: dimension must be >= 1")
        if self.b < 1:
            errors.append("b: need at least one sample per agent")
        if not 3 <= self.n_agents <= 2**31:  # the bound keeps edge counts finite
            errors.append("network.n_agents: need at least 3 and at most 2**31 agents")
        if not (0.0 < self.eta <= 1.0):
            errors.append(f"network.eta: must lie in (0, 1], got {self.eta}")
        elif self.n_agents <= 2**31:
            target = target_edge_count(self.n_agents, self.eta)
            if target < self.n_agents:
                errors.append(
                    f"network.eta: {target} edges cannot host the {self.n_agents}-agent ring"
                )
        if self.rho <= 0:
            errors.append("solver.rho: must be positive")
        if self.sigma < 0:
            errors.append("solver.sigma: must be non-negative")
        if self.max_iters < 1:
            errors.append("solver.max_iters: must be >= 1")
        if self.problem == "logistic" and self.x_update == XUpdateMode.EXACT_PROX:
            errors.append(
                "solver.x_update: the logistic objective has no closed-form "
                "proximal step; use first_order"
            )
        if self.gamma.kind == "uniform" and self.gamma.lo <= 0:
            errors.append("solver.gamma: uniform support must be strictly positive")
        for key, seed in (("seeds.graph", self.seed_graph), ("seeds.data", self.seed_data),
                          ("seeds.solver", self.seed_solver)):
            if seed < 0:
                errors.append(f"{key}: must be >= 0, got {seed}")
        if self.checkpoint_every < 0:
            errors.append("trace.checkpoint_every: must be >= 0 (0 means one row per cycle)")
        if self.attack.kind not in ("lsq", "exact", "backward", "colluding"):
            errors.append(f"attack.kind: unknown attack {self.attack.kind!r}")
        if not self.attack.agents:
            errors.append("attack.agents: expected at least one agent")
        elif not all(1 <= a <= self.n_agents for a in self.attack.agents):
            errors.append("attack.agents: agent ids out of range")
        if not self.attack.coordinates:
            errors.append("attack.coordinates: expected at least one coordinate")
        elif not all(1 <= c <= self.p for c in self.attack.coordinates):
            errors.append("attack.coordinates: coordinate out of range")
        if not (1 <= self.attack.target <= self.n_agents):
            errors.append("attack.target: agent id out of range")
        if self.attack.lsqr_tol <= 0:
            errors.append("attack.lsqr_tol: must be positive")
        if self.attack.lsqr_max_iter < 0:
            errors.append("attack.lsqr_max_iter: must be >= 0 (0 means 10 * (rows + cols))")
        if errors:
            raise ConfigError("; ".join(errors))

    def to_mapping(self) -> dict[str, str]:
        a = self.attack
        return {name: fmt(getattr(a if name.startswith("attack.") else self, attr))
                for name, attr, _, fmt, _ in KEYS}

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.to_mapping().items())

    @classmethod
    def from_mapping(cls, kv: dict[str, str]) -> "ExperimentConfig":
        check_keys(kv)
        return cls.from_parsed({name: parse_value(name, text) for name, text in kv.items()})

    @classmethod
    def from_parsed(cls, values: dict[str, Any]) -> "ExperimentConfig":
        """The validated config whose keys named in `values` hold their
        parse_value results: the first of them in KEYS order that is a
        ConfigError is raised instead, as from_mapping raises the first key
        that does not parse.  A sweep parses its base and grid values once
        and builds every point from them."""
        cfg = cls()
        a = cfg.attack
        for name, attr, _, _, _ in KEYS:
            if name in values:
                value = values[name]
                if isinstance(value, ConfigError):
                    raise value.with_traceback(None)
                setattr(a if name.startswith("attack.") else cfg, attr, value)
        cfg.validate()
        return cfg

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(parse_kv_text(text))

    @classmethod
    def from_file(cls, fh: IO[str]) -> "ExperimentConfig":
        return cls.from_text(fh.read())


def apply_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Set every seeds.* field of `cfg` from one base seed, the one way seeds
    are derived (--seed-override, the sweep's `seed`, the scripts); returns
    `cfg`.  seeds.attack is set and stays parseable but is read by nothing."""
    cfg.seed_graph, cfg.seed_data = seed, seed + 10_000
    cfg.seed_solver, cfg.seed_attack = seed + 20_000, seed + 30_000
    return cfg


def sweep_grid(kv: dict[str, str]) -> tuple[dict[str, list[str]], list[int] | None]:
    """A sweep spec's values per key, and its seeds.

    Each value is a comma list; a gamma or init spec keeps its commas.  The
    special key `seed` lists non-negative integers, each setting the four
    seeds.* keys through apply_seed; without it (None) the base config's
    seeds are kept.  The other keys are the caller's to check (check_keys).
    """
    grid: dict[str, list[str]] = {}
    for key, text in kv.items():
        values = (_BY_NAME[key].sweep if key in _BY_NAME else _sweep_list)(text)
        if not values:
            raise ConfigError(f"{key}: expected at least one sweep value")
        grid[key] = values
    tokens = grid.pop("seed", None)
    if tokens is None:
        return grid, None
    seeds = [_parse_int("seed", tok) for tok in tokens]
    if min(seeds) < 0:
        raise ConfigError(f"seed: expected non-negative integer, got {min(seeds)}")
    return grid, seeds
