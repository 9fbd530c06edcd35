"""Regularized operator estimation, smoothing matrix, GCV and diagnostics.

The estimator minimizes, over coefficient vectors c = vec(X) of length p^2,

    || vec(F) - A c ||^2 + n * lambda * c' (K + eps I) c,

where A c = vec(U C X' M_L') is the design built from the predictor
scores U and K_L = C kron M_L, vec stacks the n x p response matrix
column-major, and eps = psd_jitter(K).  Nothing p^2-dimensional is formed
from the data.  The eigenvectors of the factors C = Q_C diag(l_C) Q_C' and
M = Q_M diag(l_M) Q_M' diagonalize K + eps I exactly, and in its whitened
coordinates the design is (H kron G) diag(d) up to the vec transpose,
with G = U Q_C diag(l_C), H = M_L Q_M and d = (l_C l_M + eps)^{-1/2}.
Given the thin SVDs G = P_G diag(sigma) V_G' and H = P_H diag(tau) V_H',
its SVD is (P_H kron P_G) times the SVD W diag(s) V' of the (p r) x p^2
core (diag(tau) V_H' kron diag(sigma) V_G') diag(d), with r = min(n, p).
Every lambda on a grid reuses these factors; the smoothing matrix is
(P_H kron P_G) W diag(s^2 / (s^2 + n lambda)) W' (P_H kron P_G)' with
eigenvalues in [0, 1) by construction, and its trace is a cheap sum.
Factoring costs O(n p^2 + p^6), against O(n p^5) for an SVD of the
(n p) x p^2 design.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem, DataSet, FuncVec
from .errors import GcvDegenerateError, SingularSystemError
from .kernels import KernelMatrices


class RidgeSystem:
    """Factorizations shared by every lambda for one (data, kernels) pair."""

    def __init__(self, data: DataSet, km: KernelMatrices):
        p = data.p
        if km.p != p:
            raise ValueError(f"kernel factors are {km.p} x {km.p}, expected p = {p}")
        self.data = data
        self.km = km
        self.n = data.n
        self.p = p
        self.jitter = km.jitter
        l_C, self.Q_C = np.linalg.eigh((km.C + km.C.T) / 2)
        l_M, self.Q_M = np.linalg.eigh((km.M + km.M.T) / 2)
        # eigenvalues of K, indexed [C eigenpair, M eigenpair]
        eigs = np.outer(l_C, l_M)
        if eigs.min() + self.jitter <= 0:
            cond = float(np.abs(eigs).max() / max(np.abs(eigs).min(), 1e-300))
            raise SingularSystemError(
                "kernel matrix K is not positive definite after jitter", cond
            )
        self.d = (eigs + self.jitter) ** -0.5
        self.P_G, sigma, VGt = np.linalg.svd((data.U @ self.Q_C) * l_C, full_matrices=False)
        self.P_H, tau, VHt = np.linalg.svd(km.M_L @ self.Q_M)
        # rows a*r + b pair (P_H column a, P_G column b); columns k + j*p
        # pair (C eigenpair k, M eigenpair j), the vec order of d
        core = np.kron(tau[:, None] * VHt, sigma[:, None] * VGt) * self.d.ravel(order="F")
        self.W, self.s, self.Vt = np.linalg.svd(core, full_matrices=False)
        self._Wty = self.W.T @ (self.P_G.T @ data.F @ self.P_H).ravel(order="F")

    def shrink_factors(self, lam: float) -> np.ndarray:
        """Spectral shrinkage s^2 / (s^2 + n * lambda), in [0, 1)."""
        s2 = self.s**2
        return s2 / (s2 + self.n * lam)

    def solve(self, lam: float) -> np.ndarray:
        """Coefficient vector minimizing the penalized objective."""
        scale = self.s / (self.s**2 + self.n * lam)
        # Y = Q_C' X' Q_M, indexed [C eigenpair, M eigenpair], un-whitened by d
        Y = (self.Vt.T @ (scale * self._Wty)).reshape(self.p, self.p, order="F") * self.d
        return (self.Q_M @ Y.T @ self.Q_C.T).ravel(order="F")

    def operator_matrix(self, c_hat: np.ndarray) -> np.ndarray:
        """p x p matrix mapping predictor coefficients to output coefficients.

        Equals (K_L @ c_hat) reshaped, that is M_L X C' for c_hat = vec(X).
        """
        X = c_hat.reshape(self.p, self.p, order="F")
        return self.km.M_L @ X @ self.km.C.T

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
    """S_lambda in factored form (P_H kron P_G) W diag(f) W' (P_H kron P_G)'.

    P_G (n x r), P_H (p x q) and W ((q r) x k) have orthonormal columns, so
    the eigenvalues of S are exactly the entries of ``f`` in [0, 1) (padded
    with zeros on the orthogonal complement).  The vector vec(E) of an
    n x p matrix E reaches the core as vec(P_G' E P_H), whose entry
    (b, a) sits at a*r + b.
    """

    P_G: np.ndarray
    P_H: np.ndarray
    W: np.ndarray
    f: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.P_G.shape[0]

    @property
    def p(self) -> int:
        return self.P_H.shape[0]

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """S @ cols for a stacked (n*p,) vector or (n*p, m) matrix."""
        E = cols.reshape(self.n, self.p, -1, order="F")
        proj = np.einsum("ib,ijm,ja->abm", self.P_G, E, self.P_H, optimize=True)
        core = self.W @ (self.f[:, None] * (self.W.T @ proj.reshape(self.W.shape[0], -1)))
        out = np.einsum(
            "ib,abm,ja->ijm", self.P_G, core.reshape(proj.shape), self.P_H, optimize=True
        )
        return out.reshape(cols.shape, order="F")

    def smoothed_sq_norms(self, residuals: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """||S vec(diag(w) residuals)||^2 for every row w of ``weights``.

        Row i of ``outer`` is vec(P_G[i]' (residuals P_H)[i]), so one product
        ``weights @ outer`` projects every row-weighted copy of the n x p
        residuals.  The outer factors have orthonormal columns, so each norm
        is that of f * W' (projection); no (n*p)-long vector is formed.
        """
        outer = np.einsum("ia,ib->iab", residuals @ self.P_H, self.P_G).reshape(self.n, -1)
        core = (weights @ outer) @ self.W * self.f
        return np.einsum("bk,bk->b", core, core)

    def trace(self) -> float:
        return float(self.f.sum())

    def to_dense(self) -> np.ndarray:
        basis = np.kron(self.P_H, self.P_G) @ self.W
        return (basis * self.f) @ basis.T


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
        P_G=system.P_G, P_H=system.P_H, W=system.W, f=system.shrink_factors(lam), lam=lam
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
