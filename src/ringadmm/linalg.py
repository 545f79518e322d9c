"""Minimal dense/sparse linear algebra used by the solvers and the attacks.

Dense systems here are tiny (p <= 16), so a pivoted LAPACK solve plus a
residual check is all that is needed.  The sparse path is an LSQR-type
iteration on rectangular triplet systems; it exposes its per-iteration
residual estimates so callers can reason about convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class SingularMatrixError(ValueError):
    """Dense solve hit a singular or numerically unusable matrix."""


class NonFiniteError(FloatingPointError):
    """A kernel operation produced NaN or Inf."""


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} contains non-finite entries")


def solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the square system ``a @ x = b`` by pivoted LU.

    Raises SingularMatrixError if the factorization fails or the computed
    solution does not reproduce ``b`` to ~1e-10 relative accuracy, so an
    ill-conditioned system never returns silent garbage.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    _require_finite(a, "matrix")
    _require_finite(b, "rhs")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solve produced non-finite entries")
    resid = float(np.linalg.norm(a @ x - b))
    if resid > 1e-10 * (1.0 + float(np.linalg.norm(b))):
        raise SingularMatrixError(
            f"solution residual {resid:.3e} too large; matrix is numerically singular"
        )
    return x


@dataclass
class SparseSystem:
    """Rectangular sparse system in triplet form with a dense right-hand side.

    Duplicate (row, col) triplets are summed when the matrix is assembled.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    rhs: np.ndarray
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)
    _csr_t: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_triplets(
        cls,
        n_rows: int,
        n_cols: int,
        triplets: list[tuple[int, int, float]],
        rhs: np.ndarray,
    ) -> "SparseSystem":
        rows = np.array([t[0] for t in triplets], dtype=np.int64)
        cols = np.array([t[1] for t in triplets], dtype=np.int64)
        vals = np.array([t[2] for t in triplets], dtype=float)
        return cls(n_rows, n_cols, rows, cols, vals, np.asarray(rhs, dtype=float))

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("system must have at least one row and one column")
        if self.rhs.shape != (self.n_rows,):
            raise ValueError(f"rhs length {self.rhs.shape} != n_rows {self.n_rows}")
        if len(self.rows):
            if self.rows.min() < 0 or self.rows.max() >= self.n_rows:
                raise ValueError("triplet row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.n_cols:
                raise ValueError("triplet col index out of range")
        _require_finite(self.vals, "triplet values")
        _require_finite(self.rhs, "rhs")

    def matrix(self) -> sp.csr_matrix:
        if self._csr is None:
            coo = sp.coo_matrix(
                (self.vals, (self.rows, self.cols)), shape=(self.n_rows, self.n_cols)
            )
            self._csr = coo.tocsr()
        return self._csr

    def transpose(self) -> sp.csr_matrix:
        """A' as CSR, built once: its row products add in the same order as
        the CSC view `matrix().T`, so products with it are bit-identical."""
        if self._csr_t is None:
            self._csr_t = self.matrix().T.tocsr()
        return self._csr_t

    def with_rhs(self, rhs: np.ndarray) -> "SparseSystem":
        """Same matrix, different right-hand side (shares the assembled CSR and
        its transpose)."""
        out = SparseSystem(self.n_rows, self.n_cols, self.rows, self.cols, self.vals,
                           np.asarray(rhs, dtype=float))
        out._csr, out._csr_t = self.matrix(), self.transpose()
        return out


@dataclass
class LsqrResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    residual_history: np.ndarray


def lsqr(system: SparseSystem, tol: float = 1e-10, max_iter: int | None = None) -> LsqrResult:
    """Minimize ``||A v - b||`` with the Golub-Kahan bidiagonalization iteration
    of Paige and Saunders.

    Parameters
    ----------
    system : SparseSystem
        The rectangular system A, b.
    tol : float
        Stopping tolerance; for a consistent system the iterate satisfies
        ``||A v - b|| <= tol * ||b||`` at exit, for a least-squares problem
        ``||A' r|| <= tol * ||A|| * ||r||``.
    max_iter : int, optional
        Iteration cap; defaults to ``10 * (n_rows + n_cols)``.

    Returns
    -------
    LsqrResult
        Best iterate, its residual estimate, iteration count, a convergence
        flag (False means the cap was hit and the iterate is approximate),
        and the monotone per-iteration residual estimates.

    Notes
    -----
    Started from v = 0, so for under-determined consistent systems the
    iterates converge toward the minimum-norm solution.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = system.matrix()
    at = system.transpose()
    b = system.rhs.astype(float)
    m, n = a.shape
    if max_iter is None:
        max_iter = 10 * (m + n)

    x = np.zeros(n)
    u = b.copy()
    beta = float(np.linalg.norm(u))
    normb = beta
    if beta == 0.0:
        return LsqrResult(x, 0.0, 0, True, np.array([0.0]))
    u /= beta
    v = at @ u
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        # A'b = 0: x = 0 already minimizes the residual.
        return LsqrResult(x, beta, 0, True, np.array([beta]))
    v /= alpha
    w = v.copy()
    phibar = beta
    rhobar = alpha
    anorm_sq = alpha * alpha
    history = [beta]
    converged = False
    iterations = 0

    for it in range(1, max_iter + 1):
        iterations = it
        u = a @ v - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u /= beta
        v = at @ u - beta * v
        alpha = float(np.linalg.norm(v))
        if alpha > 0.0:
            v /= alpha
        anorm_sq += alpha * alpha + beta * beta

        rho = math.hypot(rhobar, beta)
        c = rhobar / rho
        s = beta / rho
        theta = s * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = s * phibar

        x += (phi / rho) * w
        w = v - (theta / rho) * w
        history.append(phibar)

        # phibar estimates ||r||; alpha*|c|*phibar estimates ||A'r||.
        anorm = math.sqrt(anorm_sq)
        if phibar <= tol * normb:
            converged = True
            break
        if alpha * abs(c) <= tol * anorm:
            converged = True
            break
        if alpha == 0.0 and beta == 0.0:
            converged = True
            break

    _require_finite(x, "lsqr iterate")
    return LsqrResult(x, float(phibar), iterations, converged, np.array(history))
