"""Regularized operator estimation, smoothing matrix, GCV and diagnostics.

The estimator minimizes, over coefficient vectors c of length p^2,

    || vec(F) - A c ||^2 + n * lambda * c' K c,

where A is the design built from the predictor scores U and K_L, and vec
stacks the n x p response matrix column-major.  Solves are routed through a
Cholesky factor R of the (jittered) K: with the whitened design
A R^{-T} = W diag(s) V', every lambda on a grid reuses one SVD, the
smoothing matrix is W diag(s^2 / (s^2 + n lambda)) W' with eigenvalues in
[0, 1) by construction, and its trace is a cheap sum.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .basis import BasisSystem, DataSet, FuncVec
from .errors import GcvDegenerateError, SingularSystemError
from .kernels import KernelMatrices, psd_jitter


def build_design(U: np.ndarray, K_L: np.ndarray) -> np.ndarray:
    """The (n*p) x p^2 design matrix A.

    Row (i + j'*n) of A, applied to c, yields the j'-th output coefficient
    of the fitted operator at sample i:
    sum_{k'} U[i, k'] * K_L[(j' + k'*p), :] @ c.
    """
    n, p = U.shape
    T = K_L.reshape(p, p, p * p, order="F")  # T[j', k', col]
    return np.einsum("ik,jkc->ijc", U, T).reshape(n * p, p * p, order="F")


class RidgeSystem:
    """Factorizations shared by every lambda for one (data, kernels) pair."""

    def __init__(self, data: DataSet, km: KernelMatrices):
        p = data.p
        if km.K.shape[0] != p * p:
            raise ValueError(
                f"kernel matrices are {km.K.shape[0]}-dimensional, expected p^2 = {p * p}"
            )
        self.data = data
        self.km = km
        self.n = data.n
        self.p = p
        K_sym = (km.K + km.K.T) / 2
        self.jitter = psd_jitter(km.K)
        try:
            # lower-triangular R with R R' = K + jitter * I
            self.R = cholesky(K_sym + self.jitter * np.eye(p * p), lower=True)
        except np.linalg.LinAlgError as exc:
            eigs = np.linalg.eigvalsh(K_sym)
            cond = float(np.abs(eigs).max() / max(np.abs(eigs).min(), 1e-300))
            raise SingularSystemError(
                "kernel matrix K is not positive definite after jitter", cond
            ) from exc
        self.A = build_design(data.U, km.K_L)
        whitened = solve_triangular(self.R, self.A.T, lower=True).T  # A R^{-T}
        self.W, self.s, self.Vt = np.linalg.svd(whitened, full_matrices=False)
        self.y = data.F.flatten(order="F")
        self._Wty = self.W.T @ self.y

    def shrink_factors(self, lam: float) -> np.ndarray:
        """Spectral shrinkage s^2 / (s^2 + n * lambda), in [0, 1)."""
        s2 = self.s**2
        return s2 / (s2 + self.n * lam)

    def solve(self, lam: float) -> np.ndarray:
        """Coefficient vector minimizing the penalized objective.

        One pass of iterative refinement on the normal equations recovers
        the accuracy the SVD route loses when n*p < p^2 or the spectrum is
        wide, at negligible cost.
        """
        scale = self.s / (self.s**2 + self.n * lam)
        c_white = self.Vt.T @ (scale * self._Wty)
        c = solve_triangular(self.R.T, c_white, lower=False)
        rhs = self.A.T @ self.y
        residual = rhs - self._normal_matvec(lam, c)
        return c + self._solve_normal(lam, residual)

    def _normal_matvec(self, lam: float, c: np.ndarray) -> np.ndarray:
        """(A'A + n lam (K + jitter I)) @ c without forming the matrix."""
        K_c = (self.km.K @ c + self.km.K.T @ c) / 2 + self.jitter * c
        return self.A.T @ (self.A @ c) + self.n * lam * K_c

    def _solve_normal(self, lam: float, x: np.ndarray) -> np.ndarray:
        """(A'A + n lam (K + jitter I))^{-1} @ x via the cached factors."""
        w = solve_triangular(self.R, x, lower=True)
        proj = self.Vt @ w
        u = self.Vt.T @ (proj / (self.s**2 + self.n * lam))
        if self.Vt.shape[0] < self.Vt.shape[1]:
            # economy SVD spans only range(A~'); the complement is pure ridge
            u += (w - self.Vt.T @ proj) / (self.n * lam)
        return solve_triangular(self.R.T, u, lower=False)

    def operator_matrix(self, c_hat: np.ndarray) -> np.ndarray:
        """p x p matrix mapping predictor coefficients to output coefficients."""
        return (self.km.K_L @ c_hat).reshape(self.p, self.p, order="F")

    def fitted(self, c_hat: np.ndarray) -> np.ndarray:
        return self.data.U @ self.operator_matrix(c_hat).T

    def trace(self, lam: float) -> float:
        return float(self.shrink_factors(lam).sum())

    def cond_estimate(self, lam: float) -> float:
        s2 = self.s**2 + self.n * lam
        return float(s2.max() / s2.min())


@dataclass(frozen=True, eq=False)
class FitResult:
    """Estimated coefficients, tuning parameter, and solve provenance."""

    c_hat: np.ndarray
    lam: float
    basis: BasisSystem
    provenance: dict
    system: RidgeSystem = field(repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.c_hat)):
            raise SingularSystemError("fit produced non-finite coefficients")

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "c_hat": self.c_hat.tolist(),
            "provenance": self.provenance,
        }


@dataclass(frozen=True, eq=False)
class SmoothingMatrix:
    """S_lambda in factored form W diag(f) W' with f in [0, 1).

    Supports products, trace, and densification; ``W`` has orthonormal
    columns so the eigenvalues of S are exactly the entries of ``f``
    (padded with zeros on the orthogonal complement).
    """

    W: np.ndarray
    f: np.ndarray
    n: int
    p: int
    lam: float

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """S @ cols for a stacked (n*p,) vector or (n*p, m) matrix."""
        proj = self.W.T @ cols
        return self.W @ (self.f[:, None] * proj if cols.ndim == 2 else self.f * proj)

    def trace(self) -> float:
        return float(self.f.sum())

    def to_dense(self) -> np.ndarray:
        return (self.W * self.f) @ self.W.T


def fit(
    data: DataSet,
    km: KernelMatrices,
    lam: float,
    system: RidgeSystem | None = None,
) -> FitResult:
    """Solve the penalized least-squares problem at tuning parameter lam.

    Args:
        data: paired coefficient matrices (U, F).
        km: assembled kernel matrices.
        lam: positive tuning parameter.
        system: optional precomputed RidgeSystem to reuse across lambdas.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if system is None:
        system = RidgeSystem(data, km)
    c_hat = system.solve(lam)
    provenance = {
        "kernel": km.provenance,
        "n": data.n,
        "p": data.p,
        "jitter": system.jitter,
        "cond_estimate": system.cond_estimate(lam),
    }
    return FitResult(c_hat=c_hat, lam=lam, basis=data.basis, provenance=provenance, system=system)


def predict(fit_result: FitResult, u: FuncVec) -> FuncVec:
    """Apply the estimated operator to a predictor function."""
    if u.basis is not fit_result.basis and not u.basis.compatible_with(fit_result.basis):
        raise ValueError("predictor basis does not match the fitted basis")
    dmat = fit_result.system.operator_matrix(fit_result.c_hat)
    return FuncVec(coeffs=dmat @ u.coeffs, basis=u.basis)


def smoothing_matrix(
    data: DataSet,
    km: KernelMatrices,
    lam: float,
    system: RidgeSystem | None = None,
) -> SmoothingMatrix:
    """The linear smoother mapping vec(F) to vec(F_hat) at this lambda."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if system is None:
        system = RidgeSystem(data, km)
    return SmoothingMatrix(
        W=system.W, f=system.shrink_factors(lam), n=system.n, p=system.p, lam=lam
    )


def rss(fit_result: FitResult, data: DataSet) -> float:
    """Residual sum of squares sum_i ||F_i - D_hat(U_i)||^2 in L2."""
    dmat = fit_result.system.operator_matrix(fit_result.c_hat)
    return float(np.sum((data.F - data.U @ dmat.T) ** 2))


def gcv_value(rss_val: float, n: int, p: int, trace: float) -> float:
    """GCV = n^{-1} RSS / (1 - tr(S)/(n p))^2; the operator trace is tr(S)/p."""
    if trace / (n * p) >= 1.0:
        raise GcvDegenerateError(trace, n, p)
    return rss_val / n / (1.0 - trace / (n * p)) ** 2


def gcv(fit_result: FitResult, data: DataSet) -> float:
    """Generalized cross-validation score of a fit."""
    return gcv_value(
        rss(fit_result, data), data.n, data.p, fit_result.system.trace(fit_result.lam)
    )


@dataclass(frozen=True)
class SweepRow:
    lam: float
    rss: float
    gcv: float
    trace: float


@dataclass(frozen=True)
class SweepResult:
    best_lambda: float
    rows: tuple[SweepRow, ...]


def lambda_path(system: RidgeSystem, grid) -> Iterator[tuple[SweepRow, np.ndarray]]:
    """Yield (SweepRow, fitted responses) for each lambda, in the order given."""
    data = system.data
    for lam in grid:
        fitted = system.fitted(system.solve(lam))
        rss_val = float(np.sum((data.F - fitted) ** 2))
        trace = system.trace(lam)
        gcv_val = gcv_value(rss_val, data.n, data.p, trace)
        yield SweepRow(lam=lam, rss=rss_val, gcv=gcv_val, trace=trace), fitted


def gcv_sweep(
    data: DataSet,
    km: KernelMatrices,
    lambda_grid,
    system: RidgeSystem | None = None,
) -> SweepResult:
    """Evaluate RSS/GCV/trace over a lambda grid and pick the GCV minimizer.

    The grid is processed in ascending order and ties resolve to the
    smaller lambda (strict improvement required to move the argmin).
    """
    grid = sorted(float(l) for l in lambda_grid)
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    if grid[0] <= 0:
        raise ValueError("lambda grid entries must be positive")
    if system is None:
        system = RidgeSystem(data, km)
    rows = []
    best_lambda, best_gcv = None, np.inf
    for row, _ in lambda_path(system, grid):
        rows.append(row)
        if row.gcv < best_gcv:
            best_lambda, best_gcv = row.lam, row.gcv
    return SweepResult(best_lambda=best_lambda, rows=tuple(rows))


def spectrum_diag(
    data: DataSet,
    km: KernelMatrices,
    top_m: int,
    system: RidgeSystem | None = None,
) -> np.ndarray:
    """Leading generalized eigenvalues of the prediction form against K.

    Solves (K_L' (I kron U'U / n) K_L) v = gamma K v and returns the
    largest ``top_m`` values of gamma in descending order.  Their decay
    rate is the empirical counterpart of the regularity exponent that
    governs the attainable convergence rate.
    """
    if top_m < 1 or top_m > data.p**2:
        raise ValueError(f"top_m must be in [1, p^2] = [1, {data.p ** 2}], got {top_m}")
    if system is None:
        system = RidgeSystem(data, km)
    gammas = np.sort(system.s**2 / system.n)[::-1]
    gammas = np.maximum(gammas, 0.0)
    if gammas.size < top_m:
        gammas = np.concatenate([gammas, np.zeros(top_m - gammas.size)])
    return gammas[:top_m]
