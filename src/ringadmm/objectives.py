"""Local objectives for the agents: mean-squared-error regression and
logistic regression, with exact proximal steps where available, plus
synthetic data generation and a centralized optimum oracle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Sequence

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


def write_dataset_csv(ds: Dataset, fh: IO[str]) -> None:
    """One row per sample: p feature columns then the target column."""
    w = csv.writer(fh)
    for row, t in zip(ds.features, ds.targets):
        w.writerow([repr(float(x)) for x in row] + [repr(float(t))])


def read_dataset_csv(fh: IO[str]) -> Dataset:
    rows = [r for r in csv.reader(fh) if r]
    arr = np.array([[float(x) for x in r] for r in rows])
    return Dataset(arr[:, :-1], arr[:, -1])


class RidgeObjective:
    """Mean squared residual f(x) = (1/b) sum_j (x'o_j - t_j)^2.

    Quadratic, so the value, gradient, curvature bound, and the proximal
    minimizer are all available in closed form.
    """

    def __init__(self, data: Dataset):
        self.data = data
        b = data.n_samples
        o = data.features
        self.hessian = (2.0 / b) * (o.T @ o)
        self.linear = (2.0 / b) * (o.T @ data.targets)
        self._const = float(np.mean(data.targets**2))
        if not (np.all(np.isfinite(self.hessian)) and np.all(np.isfinite(self.linear))):
            raise ValueError("ridge data must be finite")
        # H = V diag(lam) V' once, so every proximal step is two small
        # products; H + rho_eff I then has eigenvalues >= rho_eff > 0
        lam, self._eigvecs = np.linalg.eigh(self.hessian)
        if lam[0] < -1e-12 * max(1.0, lam[-1]):
            raise ValueError(f"ridge Hessian is not positive semidefinite ({lam[0]:.3e})")
        self._eigvals = np.maximum(lam, 0.0)
        self._lip = float(self._eigvals[-1])

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
        raise ProxUnsupportedError(
            "logistic loss has no closed-form proximal step; "
            "configure the first_order x-update"
        )


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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
