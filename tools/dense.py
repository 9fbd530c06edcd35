"""Dense and plain reference forms of the ridge estimator, the oracle of the tests and tools.

The package solves the ridge problem on the p x p factors of K = C kron M
and K_L = C kron M_L, in the eigenbasis of its design, and never forms a
p^2 x p^2 or (n p) x (n p) matrix.  The forms here do, or are written the
plain way, so that the tests and ``tools/bench_layers.py`` can check the
package against them:

- ``K``, ``K_L`` and ``K_eps``: the p^2 x p^2 Kronecker products of a
  ``KernelMatrices``' factors, and the symmetrized, jittered penalty
  (C + eps_C I) kron (M + eps_M I) of the ridge solve;
- ``design_by_loops``: the (n p) x p^2 design, index by index;
- ``smooth`` and ``smoother``: the smoothing matrix of a ``RidgeSystem`` at
  one lambda, applied to columns and as the dense (n p) x (n p) matrix;
- ``rss``, ``gcv`` and ``qn_statistic``: the residual sum of squares and the
  GCV score of one fit, and the test statistic Q_n of one residual set;
- ``plain_exp_factors``: C, M and M_L assembled with the plain Gaussian
  formula, subnormals and all.

Nothing under ``src/`` imports this module; pytest finds it on the
``pythonpath`` of ``pyproject.toml``.
"""

import numpy as np

from diffreg.kernels import kernel_gram
from diffreg.regress import gcv_value


def K(km) -> np.ndarray:
    """The dense p^2 x p^2 Gram matrix C kron M."""
    return np.kron(km.C, km.M)


def K_L(km) -> np.ndarray:
    """The dense p^2 x p^2 Gram matrix C kron M_L."""
    return np.kron(km.C, km.M_L)


def K_eps(km) -> np.ndarray:
    """The dense p^2 x p^2 penalty (C + eps_C I) kron (M + eps_M I) of the ridge solve.

    Built from the symmetrized factors, as ``KernelMatrices.whitening``
    factors them, with the jitters ``km.jitters``.
    """
    C_eps, M_eps = (
        (factor + factor.T) / 2 + eps * np.eye(km.p)
        for factor, eps in zip((km.C, km.M), km.jitters)
    )
    return np.kron(C_eps, M_eps)


def design_by_loops(U, K_L):
    """The (n*p) x p^2 design A, index by index, independent of the package.

    Row (i + j'*n) of A applied to c is the j'-th output coefficient of the
    fitted operator at sample i: sum_{k'} U[i, k'] * K_L[j' + k'*p, :] @ c.
    """
    n, p = U.shape
    A = np.zeros((n * p, p * p))
    for i in range(n):
        for j_out in range(p):
            row = i + j_out * n
            for k_in in range(p):
                A[row, :] += U[i, k_in] * K_L[j_out + k_in * p, :]
    return A


def smooth(system, lam: float, cols: np.ndarray) -> np.ndarray:
    """S @ cols for a stacked (n*p,) vector or (n*p, m) matrix, S the smoother of ``system``.

    S = G~ diag(1 / (s2 + n lambda)) G~' for the rotated design G~, whose column
    j*p + k is the Kronecker product of H's column j and G's column k; a
    component whose eigenvalue s2 the rank rule set to 0 contributes 0.
    """
    n, p = system.n, system.p
    E = cols.reshape(n, p, -1, order="F")
    proj = np.einsum("ik,ijm,jl->lkm", system.G, E, system.H, optimize=True)
    shifted = system.s2 + n * lam
    inverse = np.divide(1.0, shifted, out=np.zeros(shifted.shape), where=system.s2 > 0)
    out = np.einsum("ik,lkm,jl->ijm", system.G, proj * inverse.reshape(p, p, 1), system.H,
                    optimize=True)
    return out.reshape(cols.shape, order="F")


def smoother(system, lam: float) -> np.ndarray:
    """The dense (n*p) x (n*p) smoothing matrix, ``smooth`` applied to the identity."""
    return smooth(system, lam, np.eye(system.n * system.p))


def rss(fit_result, data) -> float:
    """Residual sum of squares sum_i ||F_i - D_hat(U_i)||^2 in L2."""
    dmat = fit_result.system.operator_matrix(fit_result.c_hat)
    return float(np.sum((data.F - data.U @ dmat.T) ** 2))


def gcv(fit_result, data) -> float:
    """Generalized cross-validation score of a fit, on the dataset it was fitted to."""
    if data is not fit_result.system.data:
        raise ValueError("gcv needs the dataset the fit was computed from")
    return gcv_value(
        rss(fit_result, data), data.n, data.p, fit_result.system.trace(fit_result.lam)
    )


def qn_statistic(system, lam: float, residuals: np.ndarray) -> float:
    """Q_n = n^{-1} || S vec(residuals) ||^2, S the smoother of ``system`` at ``lam``."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.shape != (system.n, system.p):
        raise ValueError(f"residuals are {residuals.shape}, expected ({system.n}, {system.p})")
    return float(system.smoothed_sq_norms(lam, residuals, np.ones((1, system.n)))[0]) / system.n


def plain_exp_factors(basis, P, B, h: float, L) -> tuple:
    """C, M and M_L assembled with the plain formula exp(-d^2 / (2 h^2)) / sqrt(2 pi h^2),
    its subnormals and all, and the L grids written out per kind."""
    nodes, w = basis.quad_nodes, basis.quad_weights
    diff = nodes[:, None] - nodes[None, :]
    k1 = np.exp(-(diff**2) / (2.0 * h * h)) / np.sqrt(2.0 * np.pi * h * h)
    neg_second = (h**2 - diff**2) / h**4 * k1
    grid = {
        "identity": k1,
        "first_derivative": -diff / h**2 * k1,
        "neg_laplacian": neg_second,
        "neg_laplacian_minus_const": neg_second - L.param * k1,
        "scaled_neg_laplacian": L.param * neg_second,
    }[L.kind]
    C = kernel_gram(w, P.apply_at(basis, nodes), k1)
    b_vals = B.apply_at(basis, np.array(basis.interval))
    bc = b_vals.T @ b_vals
    C = (C + C.T) / 2 + (bc + bc.T) / 2
    phi = basis.quad_values()
    M = kernel_gram(w, phi, k1)
    M = (M + M.T) / 2
    # the identity's M_L is M itself
    return C, M, M if L.kind == "identity" else kernel_gram(w, phi, grid)
