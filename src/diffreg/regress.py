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
Only G depends on the data: Q_C, l_C, Q_M, d, H and H'H are the kernel's
``KernelMatrices.whitening``, computed once per kernel and shared by every
dataset fitted with it.  The p^2 x p^2 Gram diag(d) (H'H kron G'G) diag(d)
forms from two p x p Grams, and one symmetric eigendecomposition
V diag(s2) V' of it serves every lambda on a grid: the solve is
V (V'b / (s2 + n lambda)) with b = d * vec(G' F H), the smoothing matrix
A V diag(1 / (s2 + n lambda)) V' A' has eigenvalues s2 / (s2 + n lambda) in
[0, 1), and its trace is a cheap sum.  Eigenvalues at or below roundoff,
p^2 max(s2) times machine epsilon, count as zero: nothing divides by them,
and the solve and the smoother drop their components, so the solve is
minimum-norm.  Factoring costs O(n p^2 + p^6), against O(n p^5) for an SVD
of the (n p) x p^2 design.  A RidgeSystem is built once per dataset.  Its
``solve``, ``trace``, ``operator_matrix`` and ``fitted`` broadcast over a
leading lambda axis as numpy functions do: a scalar lambda gives one
result, an array of m lambdas gives m rows from the one eigendecomposition.
``smooth``, ``smoothed_sq_norms`` and ``smoother`` apply the smoothing
matrix at one lambda; ``smoother`` is ``smooth`` of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem, DataSet, FuncVec
from .errors import GcvDegenerateError, SingularSystemError
from .kernels import KernelMatrices


def check_lambdas(lams, name: str = "lambda") -> np.ndarray:
    """``lams`` as a float array, after checking that every entry is finite and > 0.

    Raises ValueError naming ``name`` when an array is empty or an entry
    is zero, negative, infinite or NaN.
    """
    arr = np.asarray(lams, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr) & (arr > 0)):
        need = "positive" if arr.ndim == 0 else "nonempty and positive"
        raise ValueError(f"{name} must be {need}, got {lams}")
    return arr


class RidgeSystem:
    """Factorizations shared by every lambda for one (data, kernels) pair.

    The smoother S = A V diag(1 / (s2 + n lambda)) V' A' is read off the
    same factors; it is zero on the complement of the range of A.  The
    vector vec(E) of an n x p matrix E reaches the eigenbasis as
    V' (d * vec(G' E H)), whose entry (k, j) of G' E H sits at k + j*p.
    """

    def __init__(self, data: DataSet, km: KernelMatrices):
        p = data.p
        if km.p != p:
            raise ValueError(f"kernel factors are {km.p} x {km.p}, expected p = {p}")
        basis = data.basis
        have = {"p": p, "interval": list(basis.interval), "n_quad": len(basis.quad_nodes)}
        built = {key: km.provenance.get(key) for key in have}
        if None not in built.values() and built != have:
            raise ValueError(
                f"kernel matrices were assembled on basis {built}, the data's is {have}"
            )
        self.data = data
        self.km = km
        self.n = data.n
        self.p = p
        self.Q_C, l_C, self.Q_M, self.d, self.H, HtH = km.whitening
        self.G = (data.U @ self.Q_C) * l_C
        gram = np.kron(HtH, self.G.T @ self.G) * np.outer(self.d, self.d)
        s2, self.V = np.linalg.eigh(gram)
        # zero at or below roundoff, the rank rule of np.linalg.matrix_rank
        self.s2 = np.where(s2 > s2[-1] * s2.size * np.finfo(float).eps, s2, 0.0)
        # right-hand side V'b of the solve, b = d * vec(G' F H)
        self._rhs = self.V.T @ (self.d * (self.G.T @ data.F @ self.H).ravel(order="F"))

    def _shifted(self, lam) -> np.ndarray:
        """s2 + n * lambda, with one row per entry of a lambda array."""
        return self.s2 + self.n * np.expand_dims(lam, -1)

    def _over_shifted(self, num, lam) -> np.ndarray:
        """num / (s2 + n * lambda), and 0 where the rank rule set s2 to 0.

        Those components hold only roundoff, so dropping them makes the solve
        minimum-norm instead of dividing roundoff by n * lambda.
        """
        shifted = self._shifted(lam)
        return np.divide(num, shifted, out=np.zeros(shifted.shape), where=self.s2 > 0)

    def solve(self, lam) -> np.ndarray:
        """Minimum-norm coefficient vector minimizing the penalized objective; (..., p^2)."""
        z = self._over_shifted(self._rhs, lam) @ self.V.T
        # Y' for Y = Q_C' X' Q_M, indexed [C eigenpair, M eigenpair], un-whitened by d
        Yt = (z * self.d).reshape(*z.shape[:-1], self.p, self.p)
        return (self.Q_M @ Yt @ self.Q_C.T).swapaxes(-1, -2).reshape(z.shape)

    def operator_matrix(self, c_hat: np.ndarray) -> np.ndarray:
        """p x p matrix mapping predictor coefficients to output coefficients.

        Equals (K_L @ c_hat) reshaped, that is M_L X C' for c_hat = vec(X);
        a stack of coefficient vectors gives a stack of matrices.
        """
        X = c_hat.reshape(*c_hat.shape[:-1], self.p, self.p).swapaxes(-1, -2)
        return self.km.M_L @ X @ self.km.C.T

    def fitted(self, c_hat: np.ndarray) -> np.ndarray:
        """Fitted responses U D', (..., n, p) for (..., p^2) coefficients."""
        return self.data.U @ self.operator_matrix(c_hat).swapaxes(-1, -2)

    def trace(self, lam):
        """tr(S) = sum of the shrinkage factors s2 / (s2 + n lambda) in [0, 1)."""
        return (self.s2 / self._shifted(lam)).sum(axis=-1)

    def cond_estimate(self, lam: float) -> float:
        s2 = self._shifted(lam)
        return float(s2.max() / s2.min())

    def smooth(self, lam: float, cols: np.ndarray) -> np.ndarray:
        """S @ cols for a stacked (n*p,) vector or (n*p, m) matrix."""
        E = cols.reshape(self.n, self.p, -1, order="F")
        proj = np.einsum("ik,ijm,jl->lkm", self.G, E, self.H, optimize=True)
        y = self.d[:, None] * proj.reshape(self.d.size, -1)
        inverse = self._over_shifted(1.0, lam)
        z = self.d[:, None] * (self.V @ (inverse[:, None] * (self.V.T @ y)))
        out = np.einsum("ik,lkm,jl->ijm", self.G, z.reshape(proj.shape), self.H, optimize=True)
        return out.reshape(cols.shape, order="F")

    def smoothed_sq_norms(
        self, lam: float, residuals: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """||S vec(diag(w) residuals)||^2 for every row w of ``weights``.

        Row i of ``outer`` is vec(G[i]' (residuals H)[i]), so one product
        ``weights @ outer`` projects every row-weighted copy of the n x p
        residuals.  Since V' A' A V = diag(s2), each norm is that of
        V' (d * projection) * sqrt(s2) / (s2 + n lambda); no (n*p)-long
        vector is formed.
        """
        outer = np.einsum("ij,ik->ijk", residuals @ self.H, self.G).reshape(self.n, -1)
        inverse = self._over_shifted(1.0, lam)
        core = ((weights @ outer) * self.d) @ self.V * (np.sqrt(self.s2) * inverse)
        return np.einsum("bk,bk->b", core, core)

    def smoother(self, lam: float) -> np.ndarray:
        """The dense (n*p) x (n*p) smoothing matrix, ``smooth`` applied to the identity."""
        return self.smooth(lam, np.eye(self.n * self.p))


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


def fit(data: DataSet, km: KernelMatrices, lam: float) -> FitResult:
    """Solve the penalized least-squares problem at tuning parameter lam.

    Args:
        data: paired coefficient matrices (U, F).
        km: assembled kernel matrices.
        lam: positive tuning parameter.
    """
    check_lambdas(lam)
    system = RidgeSystem(data, km)
    c_hat = system.solve(lam)
    provenance = {
        "kernel": km.provenance,
        "n": data.n,
        "p": data.p,
        "jitter": km.jitter,
        "cond_estimate": system.cond_estimate(lam),
    }
    return FitResult(c_hat=c_hat, lam=lam, basis=data.basis, provenance=provenance, system=system)


def predict(fit_result: FitResult, u: FuncVec) -> FuncVec:
    """Apply the estimated operator to a predictor function."""
    if u.basis is not fit_result.basis and not u.basis.compatible_with(fit_result.basis):
        raise ValueError("predictor basis does not match the fitted basis")
    dmat = fit_result.system.operator_matrix(fit_result.c_hat)
    return FuncVec(coeffs=dmat @ u.coeffs, basis=u.basis)


def rss(fit_result: FitResult, data: DataSet) -> float:
    """Residual sum of squares sum_i ||F_i - D_hat(U_i)||^2 in L2."""
    dmat = fit_result.system.operator_matrix(fit_result.c_hat)
    return float(np.sum((data.F - data.U @ dmat.T) ** 2))


def gcv_value(rss_val, n: int, p: int, trace):
    """GCV = n^{-1} RSS / (1 - tr(S)/(n p))^2; the operator trace is tr(S)/p.

    Elementwise over arrays of RSS and trace values.
    """
    if np.any(np.asarray(trace) / (n * p) >= 1.0):
        raise GcvDegenerateError(float(np.max(trace)), n, p)
    return rss_val / n / (1.0 - trace / (n * p)) ** 2


def gcv(fit_result: FitResult, data: DataSet) -> float:
    """Generalized cross-validation score of a fit, on the dataset it was fitted to."""
    if data is not fit_result.system.data:
        raise ValueError("gcv needs the dataset the fit was computed from")
    return gcv_value(
        rss(fit_result, data), data.n, data.p, fit_result.system.trace(fit_result.lam)
    )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """RSS, GCV and trace tr(S) at each lambda of a grid, as (m,) arrays in grid order."""

    lambdas: np.ndarray
    rss: np.ndarray
    gcv: np.ndarray
    trace: np.ndarray

    @property
    def best_lambda(self) -> float:
        """The GCV minimizer; a tie goes to the first, the smaller lambda on an ascending grid."""
        return float(self.lambdas[np.argmin(self.gcv)])


def lambda_path(system: RidgeSystem, grid) -> tuple[SweepResult, np.ndarray]:
    """The sweep and the (m, n, p) fitted responses for a grid of m lambdas, in its order."""
    lams = np.asarray(grid, dtype=float)
    data = system.data
    fitted = system.fitted(system.solve(lams))
    rss_vals = np.sum((data.F - fitted) ** 2, axis=(-2, -1))
    traces = system.trace(lams)
    gcv_vals = gcv_value(rss_vals, data.n, data.p, traces)
    return SweepResult(lambdas=lams, rss=rss_vals, gcv=gcv_vals, trace=traces), fitted


def gcv_sweep(data: DataSet, km: KernelMatrices, lambda_grid) -> SweepResult:
    """Evaluate RSS/GCV/trace over a lambda grid, sorted ascending.

    ``best_lambda`` of the result is the GCV minimizer, the smaller lambda
    on a tie.
    """
    grid = np.sort(check_lambdas(lambda_grid, "lambda grid"))
    return lambda_path(RidgeSystem(data, km), grid)[0]


def spectrum_diag(data: DataSet, km: KernelMatrices, top_m: int) -> np.ndarray:
    """Leading generalized eigenvalues of the prediction form against K.

    Solves (K_L' (I kron U'U / n) K_L) v = gamma K v and returns the
    largest ``top_m`` values of gamma in descending order.  Their decay
    rate is the empirical counterpart of the regularity exponent that
    governs the attainable convergence rate.
    """
    if top_m < 1 or top_m > data.p**2:
        raise ValueError(f"top_m must be in [1, p^2] = [1, {data.p ** 2}], got {top_m}")
    return RidgeSystem(data, km).s2[::-1][:top_m] / data.n
