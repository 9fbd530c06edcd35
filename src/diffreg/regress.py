"""Regularized operator estimation, smoothing matrix, GCV and diagnostics.

The estimator minimizes, over coefficient vectors c = vec(X) of length p^2,

    || vec(F) - A c ||^2 + n * lambda * c' (K + eps I) c,

where A c = vec(U C X' M_L') is the design built from the predictor
scores U and K_L = C kron M_L, vec stacks the n x p response matrix
column-major, and eps = psd_jitter(K).  Nothing p^2-dimensional is formed
from the data.  The eigenvectors of the factors C = Q_C diag(l_C) Q_C' and
M = Q_M diag(l_M) Q_M' diagonalize K + eps I exactly, and in its whitened
coordinates the design is A = (H kron G) diag(d) up to the vec transpose,
with G = U Q_C diag(l_C), H = M_L Q_M and d = (l_C l_M + eps)^{-1/2}.
Its p^2 x p^2 Gram diag(d) (H'H kron G'G) diag(d) forms from two p x p
Grams, and one symmetric eigendecomposition V diag(s2) V' of it serves
every lambda on a grid: the solve is V (V'b / (s2 + n lambda)) with
b = d * vec(G' F H), the smoothing matrix A V diag(1 / (s2 + n lambda)) V' A'
has eigenvalues s2 / (s2 + n lambda) in [0, 1), and its trace is a cheap
sum.  Eigenvalues at or below roundoff, p^2 max(s2) times machine epsilon,
count as zero, and nothing divides by them.  Factoring costs
O(n p^2 + p^6), against O(n p^5) for an SVD of the (n p) x p^2 design.
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
        # whitening weights and their vec order k + j*p, k the C eigenpair
        self.d = ((eigs + self.jitter) ** -0.5).ravel(order="F")
        self.G = (data.U @ self.Q_C) * l_C
        self.H = km.M_L @ self.Q_M
        gram = np.kron(self.H.T @ self.H, self.G.T @ self.G) * np.outer(self.d, self.d)
        s2, self.V = np.linalg.eigh(gram)
        # zero at or below roundoff, the rank rule of np.linalg.matrix_rank
        self.s2 = np.where(s2 > s2[-1] * s2.size * np.finfo(float).eps, s2, 0.0)
        # right-hand side V'b of the solve, b = d * vec(G' F H)
        self._rhs = self.V.T @ (self.d * (self.G.T @ data.F @ self.H).ravel(order="F"))

    def shrink_factors(self, lam: float) -> np.ndarray:
        """Spectral shrinkage s2 / (s2 + n * lambda), in [0, 1)."""
        return self.s2 / (self.s2 + self.n * lam)

    def solve(self, lam: float) -> np.ndarray:
        """Coefficient vector minimizing the penalized objective."""
        z = self.V @ (self._rhs / (self.s2 + self.n * lam))
        # Y = Q_C' X' Q_M, indexed [C eigenpair, M eigenpair], un-whitened by d
        Y = (z * self.d).reshape(self.p, self.p, order="F")
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
        s2 = self.s2 + self.n * lam
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
    """S_lambda = A V diag(1 / (s2 + n lambda)) V' A' for A = (H kron G) diag(d).

    A lambda-view of a RidgeSystem: V diag(s2) V' is the eigendecomposition
    of A'A, so the eigenvalues of S are exactly s2 / (s2 + n lambda) in
    [0, 1) (and zero on the complement of the range of A).  The vector
    vec(E) of an n x p matrix E reaches the eigenbasis as
    V' (d * vec(G' E H)), whose entry (k, j) of G' E H sits at k + j*p.
    """

    G: np.ndarray
    H: np.ndarray
    d: np.ndarray
    V: np.ndarray
    s2: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def p(self) -> int:
        return self.H.shape[0]

    def _inverse(self) -> np.ndarray:
        return 1.0 / (self.s2 + self.n * self.lam)

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """S @ cols for a stacked (n*p,) vector or (n*p, m) matrix."""
        E = cols.reshape(self.n, self.p, -1, order="F")
        proj = np.einsum("ik,ijm,jl->lkm", self.G, E, self.H, optimize=True)
        y = self.d[:, None] * proj.reshape(self.d.size, -1)
        z = self.d[:, None] * (self.V @ (self._inverse()[:, None] * (self.V.T @ y)))
        out = np.einsum("ik,lkm,jl->ijm", self.G, z.reshape(proj.shape), self.H, optimize=True)
        return out.reshape(cols.shape, order="F")

    def smoothed_sq_norms(self, residuals: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """||S vec(diag(w) residuals)||^2 for every row w of ``weights``.

        Row i of ``outer`` is vec(G[i]' (residuals H)[i]), so one product
        ``weights @ outer`` projects every row-weighted copy of the n x p
        residuals.  Since V' A' A V = diag(s2), each norm is that of
        V' (d * projection) * sqrt(s2) / (s2 + n lambda); no (n*p)-long
        vector is formed.
        """
        outer = np.einsum("ij,ik->ijk", residuals @ self.H, self.G).reshape(self.n, -1)
        core = ((weights @ outer) * self.d) @ self.V * (np.sqrt(self.s2) * self._inverse())
        return np.einsum("bk,bk->b", core, core)

    def trace(self) -> float:
        return float((self.s2 * self._inverse()).sum())

    def to_dense(self) -> np.ndarray:
        basis = (np.kron(self.H, self.G) * self.d) @ self.V
        return (basis * self._inverse()) @ basis.T


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
    return SmoothingMatrix(G=system.G, H=system.H, d=system.d, V=system.V, s2=system.s2, lam=lam)


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
    return system.s2[::-1][:top_m] / system.n
