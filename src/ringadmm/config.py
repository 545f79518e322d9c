"""Experiment configuration: a flat ``key = value`` text format with dotted
section prefixes, chosen so configs diff cleanly and need no parser
dependency.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

from .solver import GammaSpec, InitSpec, SolverConfig, Variant, XUpdateMode


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


def format_kv(mapping: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in mapping.items())


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_gamma(text: str) -> GammaSpec:
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


def _parse_init(text: str) -> InitSpec:
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
class ExperimentConfig:
    problem: str = "ridge"          # ridge | logistic
    p: int = 2
    b: int = 30
    n_agents: int = 20
    eta: float = 0.3
    rho: float = 10.0
    variant: Variant = Variant.IADMM
    x_update: XUpdateMode = XUpdateMode.EXACT_PROX
    gamma: GammaSpec = field(default_factory=lambda: GammaSpec.constant(1.0))
    sigma: float = 0.0
    init: InitSpec = field(default_factory=InitSpec.zeros)
    max_iters: int = 10_000
    stop_eps: float = 1e-10
    seed_graph: int = 1
    seed_data: int = 2
    seed_solver: int = 3
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
            target = round(self.eta * self.n_agents * (self.n_agents - 1) / 2)
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
        if self.attack.kind not in ("lsq", "exact", "backward", "colluding"):
            errors.append(f"attack.kind: unknown attack {self.attack.kind!r}")
        if not all(1 <= a <= self.n_agents for a in self.attack.agents):
            errors.append("attack.agents: agent ids out of range")
        if not all(1 <= c <= self.p for c in self.attack.coordinates):
            errors.append("attack.coordinates: coordinate out of range")
        if not (1 <= self.attack.target <= self.n_agents):
            errors.append("attack.target: agent id out of range")
        if errors:
            raise ConfigError("; ".join(errors))

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            rho=self.rho,
            variant=self.variant,
            x_update=self.x_update,
            gamma=self.gamma,
            sigma=self.sigma,
            init=self.init,
            seed=self.seed_solver,
            max_iters=self.max_iters,
            stop_eps=self.stop_eps,
        )

    def to_mapping(self) -> dict[str, str]:
        a = self.attack
        return {
            "problem": self.problem,
            "p": str(self.p),
            "b": str(self.b),
            "network.n_agents": str(self.n_agents),
            "network.eta": repr(self.eta),
            "solver.variant": self.variant.value,
            "solver.x_update": self.x_update.value,
            "solver.rho": repr(self.rho),
            "solver.gamma": _format_gamma(self.gamma),
            "solver.sigma": repr(self.sigma),
            "solver.init": _format_init(self.init),
            "solver.max_iters": str(self.max_iters),
            "solver.stop_eps": repr(self.stop_eps),
            "seeds.graph": str(self.seed_graph),
            "seeds.data": str(self.seed_data),
            "seeds.solver": str(self.seed_solver),
            "seeds.attack": str(self.seed_attack),
            "trace.checkpoint_every": str(self.checkpoint_every),
            "attack.kind": a.kind,
            "attack.kkt_row": "true" if a.kkt_row else "false",
            "attack.pin_last_cycle": "true" if a.pin_last_cycle else "false",
            "attack.agents": ",".join(str(x) for x in a.agents),
            "attack.coordinates": ",".join(str(x) for x in a.coordinates),
            "attack.eps": repr(a.eps),
            "attack.target": str(a.target),
            "attack.lsqr_tol": repr(a.lsqr_tol),
            "attack.lsqr_max_iter": str(a.lsqr_max_iter),
        }

    def to_text(self) -> str:
        return format_kv(self.to_mapping())

    @classmethod
    def from_mapping(cls, kv: dict[str, str]) -> "ExperimentConfig":
        cfg = cls()
        known = set(cfg.to_mapping())
        unknown = set(kv) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        def geti(key: str, cur: int) -> int:
            if key not in kv:
                return cur
            try:
                return int(kv[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: expected integer, got {kv[key]!r}") from exc

        def getf(key: str, cur: float) -> float:
            if key not in kv:
                return cur
            try:
                return float(kv[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: expected number, got {kv[key]!r}") from exc

        def getb(key: str, cur: bool) -> bool:
            if key not in kv:
                return cur
            tok = kv[key].lower()
            if tok not in _BOOL:
                raise ConfigError(f"{key}: expected boolean, got {kv[key]!r}")
            return _BOOL[tok]

        def get_ints(key: str, cur: tuple[int, ...]) -> tuple[int, ...]:
            if key not in kv:
                return cur
            try:
                return tuple(int(tok) for tok in kv[key].split(",") if tok.strip())
            except ValueError as exc:
                raise ConfigError(f"{key}: expected comma-separated ints") from exc

        cfg.problem = kv.get("problem", cfg.problem)
        cfg.p = geti("p", cfg.p)
        cfg.b = geti("b", cfg.b)
        cfg.n_agents = geti("network.n_agents", cfg.n_agents)
        cfg.eta = getf("network.eta", cfg.eta)
        if "solver.variant" in kv:
            try:
                cfg.variant = Variant(kv["solver.variant"])
            except ValueError:
                raise ConfigError(
                    f"solver.variant: unknown variant {kv['solver.variant']!r} "
                    f"(expected one of {[v.value for v in Variant]})"
                ) from None
        if "solver.x_update" in kv:
            try:
                cfg.x_update = XUpdateMode(kv["solver.x_update"])
            except ValueError:
                raise ConfigError(
                    f"solver.x_update: unknown mode {kv['solver.x_update']!r}"
                ) from None
        cfg.rho = getf("solver.rho", cfg.rho)
        if "solver.gamma" in kv:
            cfg.gamma = _parse_gamma(kv["solver.gamma"])
        cfg.sigma = getf("solver.sigma", cfg.sigma)
        if "solver.init" in kv:
            cfg.init = _parse_init(kv["solver.init"])
        cfg.max_iters = geti("solver.max_iters", cfg.max_iters)
        cfg.stop_eps = getf("solver.stop_eps", cfg.stop_eps)
        cfg.seed_graph = geti("seeds.graph", cfg.seed_graph)
        cfg.seed_data = geti("seeds.data", cfg.seed_data)
        cfg.seed_solver = geti("seeds.solver", cfg.seed_solver)
        cfg.seed_attack = geti("seeds.attack", cfg.seed_attack)
        cfg.checkpoint_every = geti("trace.checkpoint_every", cfg.checkpoint_every)
        a = cfg.attack
        a.kind = kv.get("attack.kind", a.kind)
        a.kkt_row = getb("attack.kkt_row", a.kkt_row)
        a.pin_last_cycle = getb("attack.pin_last_cycle", a.pin_last_cycle)
        a.agents = get_ints("attack.agents", a.agents)
        a.coordinates = get_ints("attack.coordinates", a.coordinates)
        a.eps = getf("attack.eps", a.eps)
        a.target = geti("attack.target", a.target)
        a.lsqr_tol = getf("attack.lsqr_tol", a.lsqr_tol)
        a.lsqr_max_iter = geti("attack.lsqr_max_iter", a.lsqr_max_iter)
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
