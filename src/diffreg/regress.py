"""Regularized operator estimation, smoothing matrix, GCV and diagnostics.

The estimator minimizes, over coefficient vectors c = vec(X) of length p^2,

    || vec(F) - A c ||^2 + n * lambda * c' K_eps c,

where A c = vec(U C X' M_L') is the design built from the predictor
scores U and K_L = C kron M_L, vec stacks the n x p response matrix
column-major, and K_eps = (C + eps_C I) kron (M + eps_M I) is the kernel
K = C kron M with each factor jittered by 1e-10 times its trace over p
(``KernelMatrices.jitters``).  No p^2 x p^2 array exists: every array is
p x p or n x p.  The eigenvectors Q_C, Q_M of the factors whiten K_eps,
with weights D_C, D_M, and the whitened design is the Kronecker product
of W = U Q_C diag(l_C) D_C and H_w = M_L Q_M D_M.  Its Gram H_w'H_w kron
W'W has eigenvalues s2 = a kron b from H_w'H_w = V_M diag(a) V_M' and
W'W = V_C diag(b) V_C', and both rotations are folded into the factors:
G = W V_C and H = H_w V_M have diagonal Grams, so nothing p^2-long is ever
rotated.  H_w depends on the kernel alone, so ``KernelMatrices.whitening``
solves the M-side eigenproblem once per kernel; factoring a dataset is one
p x p symmetric eigendecomposition, of W'W, at O(n p^2 + p^3) against
O(n p^5) for an SVD of the (n p) x p^2 design.  The factors serve every
lambda: the solve is T_M [(H' F' G) / (s2 + n lambda)] T_C' with
T_M = Q_M D_M V_M and T_C = Q_C D_C V_C, the smoothing matrix has
eigenvalues s2 / (s2 + n lambda) in [0, 1), and its trace is a cheap sum.
s2 is left unsorted.  Eigenvalues at or below roundoff, p^2 max(s2) times
machine epsilon, count as zero: nothing divides by them, and the solve and
the smoother drop their components, so the solve is minimum-norm.  A
RidgeSystem is built once per dataset.  Its ``solve``, ``trace``,
``operator_matrix`` and ``fitted`` broadcast over a leading lambda axis as
numpy functions do: a scalar lambda gives one result, an array of m lambdas
gives m rows from the one factorization.  The factorization depends on the
predictors alone, so one system also serves a (C, n, p) stack of responses
to them; ``solve`` and ``lambda_path`` then add a leading response axis.
Sums over the n rows are taken on p x p factors of U = QR: the RSS of
operator matrices D is ||F - Q Q'F||^2 + ||Q'F - R D'||^2, and the ESS is
||U E'||^2 = ||R E'||^2 for E = D - diag(mu); neither subtracts large
terms, and no n x p fit is formed (with n <= p, Q = I).  ``smooth``,
``smoothed_sq_norms`` and ``smoother`` apply the smoothing matrix at one
lambda; ``smoother`` is ``smooth`` of the identity.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import BasisSystem, DataSet, FuncVec
from .errors import GcvDegenerateError, SingularSystemError
from .kernels import KernelMatrices


def check_lambdas(lams, name: str = "lambda", n: int | None = None) -> np.ndarray:
    """``lams`` as a float array, after checking that every entry is finite and > 0.

    Raises ValueError naming ``name`` when an array is empty or an entry
    is zero, negative, infinite or NaN; given the sample size ``n``, also
    when n * lambda, the shift of every solve, overflows.
    """
    arr = np.asarray(lams, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr) & (arr > 0)):
        need = "positive" if arr.ndim == 0 else "nonempty and positive"
        raise ValueError(f"{name} must be {need}, got {lams}")
    if n is not None:
        with np.errstate(over="ignore"):
            # the first test keeps an int n past the float range from raising OverflowError
            finite = n <= sys.float_info.max and np.all(np.isfinite(n * arr))
        if not finite:
            raise ValueError(f"{name} must keep n * lambda finite for n = {n}, got {lams}")
    return arr


class RidgeSystem:
    """Factorizations shared by every lambda for one (data, kernels) pair.

    G = U P_C V_C and H hold the design rotated into its eigenbasis, with
    G'G = diag(b) and H'H = diag(a).  An n x p matrix E reaches the
    eigenbasis as Z = H' E' G, whose entry (j, k) sits at j*p + k beside
    s2 = a_j b_k; the smoother maps it back as G (Z / (s2 + n lambda))' H'.
    """

    def __init__(self, data: DataSet, km: KernelMatrices, responses: np.ndarray | None = None):
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
        P_C, R_C, a, self.H, self.T_M = km.whitening
        W = data.U @ P_C
        # the C side of the whitened Gram diag(a) kron W'W, the one eigh per dataset
        b, V_C = np.linalg.eigh(W.T @ W)
        self.G, self.T_C = W @ V_C, R_C @ V_C
        with np.errstate(over="ignore"):
            # left unsorted: entry j*p + k is a_j * b_k
            s2 = np.outer(a, b).ravel()
            # zero at or below roundoff, the rank rule of np.linalg.matrix_rank
            floor = s2.max() * s2.size * np.finfo(float).eps
        # an infinite floor would zero every eigenvalue, and so the fit, without a word
        if not (np.isfinite(s2).all() and np.isfinite(floor)):
            raise ValueError("the whitened design's Gram eigenvalues overflow")
        self.s2 = np.where(s2 > floor, s2, 0.0)
        # the response side: data.F, or a (C, n, p) stack held as (C, 1, n, p), so that
        # an (m,) grid or a (C, k) array of lambdas broadcasts to (C, m) or (C, k) rows
        if responses is None:
            self.F = data.F
        elif np.ndim(responses) != 3 or np.shape(responses)[1:] != (self.n, p):
            raise ValueError(f"responses are {np.shape(responses)}, expected (C, {self.n}, {p})")
        else:
            self.F = np.asarray(responses, dtype=float)[:, None]
        # right-hand side of the solve, the response in the eigenbasis
        Z = self.H.T @ self.F.swapaxes(-1, -2) @ self.G
        self._rhs = Z.reshape(*Z.shape[:-2], -1)

    def _shifted(self, lam) -> np.ndarray:
        """s2 + n * lambda, with one row per entry of a lambda array."""
        return self.s2 + self.n * np.expand_dims(lam, -1)

    def _over_shifted(self, num, lam) -> np.ndarray:
        """num / (s2 + n * lambda), and 0 where the rank rule set s2 to 0.

        Those components hold only roundoff, so dropping them makes the solve
        minimum-norm instead of dividing roundoff by n * lambda.
        """
        shifted = self._shifted(lam)
        out = np.zeros(np.broadcast(num, shifted).shape)
        return np.divide(num, shifted, out=out, where=self.s2 > 0)

    def solve(self, lam) -> np.ndarray:
        """Minimum-norm coefficient vector minimizing the penalized objective; (..., p^2).

        For a response stack the leading axes are (C, k) for a scalar, an (k,)
        grid or a (C, k) array of lambdas, row c of which goes to response c.
        """
        z = self._over_shifted(self._rhs, lam)
        # X' for c = vec(X), mapped back from the eigenbasis [M eigenpair, C eigenpair]
        Xt = self.T_M @ z.reshape(*z.shape[:-1], self.p, self.p) @ self.T_C.T
        return Xt.swapaxes(-1, -2).reshape(z.shape)

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

    @cached_property
    def _qr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """R of the reduced QR U = QR, Q'F and ||F - Q Q'F||^2, computed on first use.

        With n <= p, U is no larger than R, so Q = I spares the rotation's roundoff.
        """
        if self.n <= self.p:
            return self.data.U, self.F, 0.0
        Q, R = np.linalg.qr(self.data.U)
        QtF = Q.T @ self.F
        return R, QtF, sum_sq_diff(self.F, Q @ QtF)

    def fitted_sq_norms(self, operators: np.ndarray) -> np.ndarray:
        """||U E'||^2 = ||R E'||^2 for each of the (..., p, p) matrices E, from U = QR."""
        RE = self._qr[0] @ operators.swapaxes(-1, -2)
        RE *= RE
        return RE.sum(axis=(-2, -1))

    def residual_sq_norms(self, operators: np.ndarray) -> np.ndarray:
        """||F - U D'||^2 = ||F - Q Q'F||^2 + ||Q'F - R D'||^2 for (..., p, p) matrices D."""
        R, QtF, off_span = self._qr
        return off_span + sum_sq_diff(QtF, R @ operators.swapaxes(-1, -2))

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
        inverse = self._over_shifted(1.0, lam).reshape(self.p, self.p, 1)
        out = np.einsum("ik,lkm,jl->ijm", self.G, proj * inverse, self.H, optimize=True)
        return out.reshape(cols.shape, order="F")

    def smoothed_sq_norms(
        self, lam: float, residuals: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """||S vec(diag(w) residuals)||^2 for every row w of ``weights``.

        Row i of ``outer = residual_outer(residuals)`` is vec((residuals H)[i]' G[i]),
        so one product ``weights @ outer`` takes every row-weighted copy of the n x p
        residuals to the eigenbasis.  Since G'G and H'H are diagonal, each
        norm is that of the projection times sqrt(s2) / (s2 + n lambda); no
        (n*p)-long vector is formed.
        """
        return self.projected_sq_norms(lam, weights @ self.residual_outer(residuals))

    def residual_outer(self, residuals: np.ndarray) -> np.ndarray:
        """The (n, p^2) array whose row i is vec((residuals H)[i]' G[i])."""
        return np.einsum("ij,ik->ijk", residuals @ self.H, self.G).reshape(self.n, -1)

    def projected_sq_norms(self, lam: float, projections: np.ndarray) -> np.ndarray:
        """``smoothed_sq_norms`` of rows already taken to the eigenbasis, ``weights @ outer``."""
        core = projections * (np.sqrt(self.s2) * self._over_shifted(1.0, lam))
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
        "jitter": dict(zip(("C", "M"), km.jitters)),
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


def sum_sq_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of (a - b)^2 over the last two axes, one per leading index.

    Squares in place, so a stack of fits needs one temporary, not two.
    """
    diff = np.subtract(a, b)
    diff *= diff
    return diff.sum(axis=(-2, -1))


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
    """RSS, GCV and trace tr(S) at each lambda of a grid, as (m,) arrays in grid order.

    The sweep of a system of C responses holds (C, m) RSS and GCV, one row
    per response, beside the shared (m,) trace.
    """

    lambdas: np.ndarray
    rss: np.ndarray
    gcv: np.ndarray
    trace: np.ndarray

    @property
    def best_lambda(self) -> float | np.ndarray:
        """The GCV minimizer: a float, or a (C,) array for a sweep of C responses.

        A tie goes to the first, the smaller lambda on an ascending grid.
        """
        best = self.lambdas[np.argmin(self.gcv, axis=-1)]
        return float(best) if best.ndim == 0 else best


def lambda_path(system: RidgeSystem, grid) -> tuple[SweepResult, np.ndarray]:
    """The sweep and the (m, p, p) operator matrices for a grid of m lambdas, in its order.

    A system of C responses gives a sweep of (C, m) rows and (C, m, p, p)
    operators.  RSS comes from ``residual_sq_norms``: no n x p fit is formed.
    """
    lams = np.asarray(grid, dtype=float)
    operators = system.operator_matrix(system.solve(lams))
    rss_vals = system.residual_sq_norms(operators)
    traces = system.trace(lams)
    gcv_vals = gcv_value(rss_vals, system.n, system.p, traces)
    return SweepResult(lambdas=lams, rss=rss_vals, gcv=gcv_vals, trace=traces), operators


def gcv_sweep(data: DataSet, km: KernelMatrices, lambda_grid) -> SweepResult:
    """Evaluate RSS/GCV/trace over a lambda grid, sorted ascending.

    ``best_lambda`` of the result is the GCV minimizer, the smaller lambda
    on a tie.
    """
    grid = np.sort(check_lambdas(lambda_grid, "lambda grid"))
    return lambda_path(RidgeSystem(data, km), grid)[0]


def spectrum_diag(data: DataSet, km: KernelMatrices, top_m: int) -> np.ndarray:
    """Leading generalized eigenvalues of the prediction form against the penalty K_eps.

    Solves (K_L' (I kron U'U / n) K_L) v = gamma K_eps v and returns the
    largest ``top_m`` values of gamma in descending order.  Their decay
    rate is the empirical counterpart of the regularity exponent that
    governs the attainable convergence rate.
    """
    if top_m < 1 or top_m > data.p**2:
        raise ValueError(f"top_m must be in [1, p^2] = [1, {data.p ** 2}], got {top_m}")
    return np.sort(RidgeSystem(data, km).s2)[::-1][:top_m] / data.n
