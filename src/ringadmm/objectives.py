"""Local objectives for the agents: mean-squared-error regression and
logistic regression, with exact proximal steps where available, plus
synthetic data generation and a centralized optimum oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import solve_dense


class ProxUnsupportedError(NotImplementedError):
    """The objective has no closed-form proximal step; use the first-order
    x-update instead."""


class OptimizerError(RuntimeError):
    """Centralized optimum search failed to reach the requested tolerance."""


@dataclass(frozen=True)
class Dataset:
    """Per-agent samples: features (b, p), targets (b,)."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be a (b, p) array")
        b = self.features.shape[0]
        if b < 1:
            raise ValueError("need at least one sample")
        if self.targets.shape != (b,):
            raise ValueError("targets must be a (b,) array matching features")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


class RidgeParameters:
    """The closed-form parameters of N ridge objectives as (N, ...) arrays:
    H = (2/b) O'O, c = (2/b) O't, the constant mean(t^2), and H = V diag(lam) V'
    with lam clipped at 0.  One batched product each for H and c, one mean
    and one stacked eigh; every slice equals the single-agent computation
    bit for bit."""

    def __init__(self, datasets: Sequence[Dataset]):
        feats = np.stack([d.features for d in datasets])
        targets = np.stack([d.targets for d in datasets])
        b = feats.shape[1]
        feats_t = np.swapaxes(feats, -1, -2)
        self.hessian = (2.0 / b) * (feats_t @ feats)
        self.linear = (2.0 / b) * (feats_t @ targets[..., None])[..., 0]
        self.const = np.mean(targets**2, axis=1)
        if not (np.all(np.isfinite(self.hessian)) and np.all(np.isfinite(self.linear))):
            raise ValueError("ridge data must be finite")
        # every proximal step is then two small products; H + rho_eff I has
        # eigenvalues >= rho_eff > 0
        lam, self.eigvecs = np.linalg.eigh(self.hessian)
        bad = lam[:, 0] < -1e-12 * np.maximum(1.0, lam[:, -1])
        if bad.any():
            raise ValueError(
                f"ridge Hessian is not positive semidefinite ({lam[bad.argmax(), 0]:.3e})"
            )
        self.eigvals = np.maximum(lam, 0.0)

    @classmethod
    def of(cls, objectives: Sequence["RidgeObjective"]) -> "RidgeParameters":
        """The parameters of these objectives, in order: the stack they were
        built from when they are all of it, else their rows gathered."""
        first = objectives[0].params
        if len(first.const) == len(objectives) and all(
            f.params is first and f.row == a for a, f in enumerate(objectives)
        ):
            return first
        out = cls.__new__(cls)
        for name in ("hessian", "linear", "const", "eigvecs", "eigvals"):
            setattr(out, name, np.stack([getattr(f.params, name)[f.row] for f in objectives]))
        return out


class RidgeObjective:
    """Mean squared residual f(x) = (1/b) sum_j (x'o_j - t_j)^2.

    Quadratic, so the value, gradient, curvature bound, and the proximal
    minimizer are all available in closed form.  Its parameters are row
    `row` of a RidgeParameters stack; `RidgeObjective(data)` builds a stack
    of one, and `RidgeObjective.stack` one objective per dataset over a
    shared stack.
    """

    def __init__(self, data: Dataset, params: RidgeParameters | None = None, row: int = 0):
        self.data = data
        self.params = RidgeParameters([data]) if params is None else params
        self.row = row
        self.hessian = self.params.hessian[row]
        self.linear = self.params.linear[row]
        self._const = float(self.params.const[row])
        self._eigvecs = self.params.eigvecs[row]
        self._eigvals = self.params.eigvals[row]
        self._lip = float(self._eigvals[-1])

    @classmethod
    def stack(cls, datasets: Sequence[Dataset]) -> list["RidgeObjective"]:
        """One objective per dataset (one sample count and dimension), with
        views into one RidgeParameters stack."""
        params = RidgeParameters(datasets)
        return [cls(d, params, a) for a, d in enumerate(datasets)]

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.hessian @ x - self.linear @ x + self._const)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.hessian @ x - self.linear

    def lipschitz_bound(self) -> float:
        return self._lip

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        return self.hessian

    def prox(self, z: np.ndarray, y: np.ndarray, rho_eff: float) -> np.ndarray:
        """argmin_x f(x) + (rho_eff/2) ||z - x + y/rho_eff||^2, the solution of
        (H + rho_eff I) x = c + rho_eff z + y, in the eigenbasis of H."""
        if rho_eff <= 0:
            raise ValueError("rho_eff must be positive")
        v = self._eigvecs
        return v @ ((v.T @ (self.linear + rho_eff * z + y)) / (self._eigvals + rho_eff))


_NO_LOGISTIC_PROX = ("logistic loss has no closed-form proximal step; "
                     "configure the first_order x-update")


class LogisticObjective:
    """f(x) = (1/b) sum_j log(1 + exp(-t_j x'o_j)) with targets in {-1, +1}."""

    def __init__(self, data: Dataset):
        if not np.all(np.isin(data.targets, (-1.0, 1.0))):
            raise ValueError("logistic targets must be -1 or +1")
        self.data = data
        o = data.features
        b = data.n_samples
        # sigmoid slope is at most 1/4, hence the curvature bound below
        self._lip = float(np.linalg.eigvalsh(o.T @ o)[-1]) / (4.0 * b)

    def value(self, x: np.ndarray) -> float:
        margins = self.data.targets * (self.data.features @ x)
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        t = self.data.targets
        margins = t * (self.data.features @ x)
        slope = t * _sigmoid(-margins)
        return -(self.data.features.T @ slope) / self.data.n_samples

    def lipschitz_bound(self) -> float:
        return self._lip

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        t = self.data.targets
        margins = t * (self.data.features @ x)
        s = _sigmoid(margins)
        w = s * (1.0 - s)
        return (self.data.features.T * w) @ self.data.features / self.data.n_samples

    def prox(self, z: np.ndarray, y: np.ndarray, rho_eff: float) -> np.ndarray:
        raise ProxUnsupportedError(_NO_LOGISTIC_PROX)


class RidgeStack:
    """The ridge objectives of B runs over the same N agents, indexed
    agent-first; columns[b][a] is run b's agent a.

    `sel` picks one objective per output: an agent index picks that agent
    of every run (a basic slice of the (N, B, ...) parameter arrays), and a
    tuple (agents, runs) of index arrays picks any agent of any run.  Each
    method takes `sel` first and evaluates the picked objectives in one
    stacked expression whose results equal each objective's own methods bit
    for bit; LogisticStack's do the same.  rho_eff is a (B, 1) column.
    """

    affine = True  # steps affine in the state, which the solver precomputes as operators

    def __init__(self, columns: Sequence[Sequence]):
        params = [RidgeParameters.of(c) for c in columns]

        def runs(name: str) -> np.ndarray:  # the (N, B, ...) stack of one parameter
            return np.stack([getattr(q, name) for q in params], axis=1)

        self.eigvecs = runs("eigvecs")
        self.eigvals = runs("eigvals")
        n, b, p = self.eigvals.shape
        # each objective's H, c and constant side by side: value() gathers once
        self._quadratic = np.concatenate([runs("hessian").reshape(n, b, p * p),
                                          runs("linear"), runs("const")[..., None]], axis=-1)
        self.hessian = self._quadratic[..., : p * p].reshape(n, b, p, p)
        self.linear = self._quadratic[..., p * p : -1]

    def prox(self, sel, z, y, rho_eff):
        v = self.eigvecs[sel]
        # V' as a transposed view, the memory layout of one objective's v.T
        u = np.swapaxes(v, -1, -2) @ (self.linear[sel] + rho_eff * z + y)[..., None]
        u /= (self.eigvals[sel] + rho_eff)[..., None]
        return (v @ u)[..., 0]

    def gradient(self, sel, x):
        return (self.hessian[sel] @ x[..., None])[..., 0] - self.linear[sel]

    def value(self, sel, x):
        q = self._quadratic[sel]
        p = x.shape[-1]
        hessian, linear = q[..., : p * p].reshape(*q.shape[:-1], p, p), q[..., None, p * p : -1]
        col = x[..., None]
        quad = ((0.5 * x)[..., None, :] @ hessian) @ col
        return (quad - linear @ col)[..., 0, 0] + q[..., -1]


class LogisticStack:
    """Logistic objectives with one sample count b, selected as in
    RidgeStack; no proximal step.  Holds the signed features t_j o_j as one
    (N, B, b, p) stack: with t_j = +-1, the margins S x and the gradient
    -S' sigmoid(-S x) / b equal each objective's t (O x) and
    -O' (t sigmoid(-t O x)) / b bit for bit."""

    affine = False  # the first-order step is affine given the gradient, an operator input

    def __init__(self, columns: Sequence[Sequence]):
        self.signed = np.array([[f.data.targets[:, None] * f.data.features for f in agent]
                                for agent in zip(*columns)])

    def prox(self, sel, z, y, rho_eff):
        raise ProxUnsupportedError(_NO_LOGISTIC_PROX)

    def gradient(self, sel, x):
        s = self.signed[sel]
        slope = _sigmoid(-(s @ x[..., None]))
        return -(np.swapaxes(s, -1, -2) @ slope)[..., 0] / s.shape[-2]

    def value(self, sel, x):
        return np.mean(np.logaddexp(0.0, -(self.signed[sel] @ x[..., None])[..., 0]), axis=-1)


def stack_kind(objectives: Sequence) -> tuple:
    """The stack that runs of these objectives step on: ("ridge",)
    for RidgeObjectives, ("logistic", b) for LogisticObjectives with one
    sample count b.  Any other problem, subclasses and mixes included, is a
    ValueError."""
    types = {type(f) for f in objectives}
    if types == {RidgeObjective}:
        return ("ridge",)
    sizes = {f.data.n_samples for f in objectives} if types == {LogisticObjective} else ()
    if len(sizes) == 1:
        return ("logistic", *sizes)
    raise ValueError("a problem needs all RidgeObjective or all LogisticObjective objectives "
                     f"with one sample count, got {sorted(t.__name__ for t in types)}")


def stack_objectives(columns: Sequence[Sequence]) -> RidgeStack | LogisticStack:
    """The stack of runs whose objectives have one stack_kind."""
    return {"ridge": RidgeStack, "logistic": LogisticStack}[stack_kind(columns[0])[0]](columns)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-u)), as exp(u) / (1 + exp(u)) below 0: no overflow."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def generate_ridge_data(b: int, p: int, seed) -> Dataset:
    """Features and targets i.i.d. uniform on [0, 1)."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(0.0, 1.0, size=(b, p)), rng.uniform(0.0, 1.0, size=b))


def generate_logistic_data(b: int, p: int, planted_seed, data_seed) -> Dataset:
    """Labels planted by a hidden linear model.

    Draw order (stable contract): the hidden weight vector x ~ N(0, I) from
    planted_seed; then from data_seed the features (b, p) row-major ~ N(0, I)
    followed by b uniforms v; label is +1 where v <= sigmoid(x'o), else -1.
    """
    planted = np.random.default_rng(planted_seed).standard_normal(p)
    rng = np.random.default_rng(data_seed)
    feats = rng.standard_normal((b, p))
    v = rng.uniform(0.0, 1.0, size=b)
    labels = np.where(v <= _sigmoid(feats @ planted), 1.0, -1.0)
    return Dataset(feats, labels)


def centralized_optimum(
    objectives: Sequence, tol: float = 1e-12, max_iters: int = 500
) -> np.ndarray:
    """Minimizer of sum_i f_i.

    All-quadratic instances are solved by pooled normal equations; otherwise
    damped Newton with Armijo backtracking runs until the summed gradient
    norm drops below tol (plain gradient steps stall far above 1e-12 on
    logistic sums, so the curvature is used; the dimension is tiny).
    """
    if all(isinstance(f, RidgeObjective) for f in objectives):
        # pooled normal equations; lstsq returns the minimum-norm solution
        # when the pooled data leaves flat directions
        h = sum(f.hessian for f in objectives)
        c = sum(f.linear for f in objectives)
        x = np.linalg.lstsq(h, c, rcond=None)[0]
        gnorm = float(np.linalg.norm(h @ x - c))
        if gnorm > 1e-9 * (1.0 + float(np.linalg.norm(c))):
            raise OptimizerError(f"pooled solve left gradient norm {gnorm:.3e}")
        return x

    p = objectives[0].data.dim
    x = np.zeros(p)
    fval = sum(f.value(x) for f in objectives)
    for _ in range(max_iters):
        grad = sum(f.gradient(x) for f in objectives)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return x
        hess = sum(f.hessian_at(x) for f in objectives)
        try:
            direction = solve_dense(hess + 1e-12 * np.eye(p), grad)
        except Exception:
            direction = grad  # fall back to a gradient step
        slope = float(grad @ direction)
        if slope <= 0:
            direction = grad
            slope = gnorm * gnorm
        t = 1.0
        cand = x - t * direction
        fcand = sum(f.value(cand) for f in objectives)
        # near the optimum the decrease Armijo asks for (~||g||^2) is below the
        # rounding of the summed values, where backtracking would only stall:
        # a full step that fails Armijo within that rounding is kept if it
        # lowers the gradient norm
        rounding = 64.0 * np.finfo(float).eps * abs(fval)
        if fval - 1e-4 * slope < fcand <= fval + rounding and (
            np.linalg.norm(sum(f.gradient(cand) for f in objectives)) < gnorm
        ):
            x, fval = cand, fcand
            continue
        while fcand > fval - 1e-4 * t * slope and t > 1e-18:
            t *= 0.5
            cand = x - t * direction
            fcand = sum(f.value(cand) for f in objectives)
        x, fval = cand, fcand
    grad = sum(f.gradient(x) for f in objectives)
    raise OptimizerError(
        f"gradient norm {np.linalg.norm(grad):.3e} after {max_iters} iterations "
        f"(target {tol:.1e})"
    )
