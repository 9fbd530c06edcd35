"""Tests for the ridge solver, smoothing matrix, GCV and spectrum."""

import numpy as np
import pytest

from diffreg import (
    DataSet,
    FuncVec,
    GcvDegenerateError,
    KernelMatrices,
    KernelSpec,
    SingularSystemError,
    assemble,
    fit,
    gcv,
    gcv_sweep,
    identity_op,
    make_cosine_basis,
    neg_laplacian,
    predict,
    rss,
    smoothing_matrix,
    spectrum_diag,
)
from diffreg.kernels import psd_jitter
from diffreg.regress import RidgeSystem, build_design, gcv_value

from conftest import random_dataset


def design_by_loops(U, K_L, p):
    """Index-by-index design construction, independent of the vectorized path."""
    n = U.shape[0]
    A = np.zeros((n * p, p * p))
    for i in range(n):
        for j_out in range(p):
            row = i + j_out * n
            for k_in in range(p):
                A[row, :] += U[i, k_in] * K_L[j_out + k_in * p, :]
    return A


def objective(c, A, y, K, n, lam):
    resid = y - A @ c
    return float(resid @ resid + n * lam * c @ (K @ c))


def fd_gradient(f, c, step=1e-6):
    grad = np.zeros_like(c)
    for i in range(c.size):
        delta = np.zeros_like(c)
        delta[i] = step * max(1.0, abs(c[i]))
        grad[i] = (f(c + delta) - f(c - delta)) / (2 * delta[i])
    return grad


def test_design_matches_loop_construction(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=5, seed=0)
    A = build_design(U, km_p3.K_L)
    np.testing.assert_allclose(A, design_by_loops(U, km_p3.K_L, 3), atol=1e-12)


def test_zero_response_gives_zero_coefficients(basis_p3, km_p3):
    U, _ = random_dataset(basis_p3, n=4, seed=1)
    data = DataSet(U=U, F=np.zeros_like(U), basis=basis_p3)
    result = fit(data, km_p3, lam=0.5)
    assert np.max(np.abs(result.c_hat)) < 1e-14


def test_fit_matches_generic_dense_solver(basis_p3, km_p3):
    # oracle: LU solve of the normal equations built from the loop design
    U, F = random_dataset(basis_p3, n=3, seed=2)
    data = DataSet(U=U, F=F, basis=basis_p3)
    lam = 0.5
    result = fit(data, km_p3, lam)
    A = design_by_loops(U, km_p3.K_L, 3)
    y = F.flatten(order="F")
    K_eff = (km_p3.K + km_p3.K.T) / 2 + psd_jitter(km_p3.K) * np.eye(9)
    oracle = np.linalg.solve(A.T @ A + data.n * lam * K_eff, A.T @ y)
    assert np.max(np.abs(result.c_hat - oracle)) < 1e-8 * max(1.0, np.max(np.abs(oracle)))


def test_gradient_vanishes_at_solution(basis_p3, km_p3):
    # the solved objective carries the documented PSD jitter on K; the
    # jitter-free gradient check runs in the acceptance suite at its own
    # tolerance
    U, F = random_dataset(basis_p3, n=3, seed=3)
    data = DataSet(U=U, F=F, basis=basis_p3)
    lam = 0.5
    result = fit(data, km_p3, lam)
    A = build_design(U, km_p3.K_L)
    y = F.flatten(order="F")
    K_eff = (km_p3.K + km_p3.K.T) / 2 + psd_jitter(km_p3.K) * np.eye(9)
    f = lambda c: objective(c, A, y, K_eff, data.n, lam)
    grad = fd_gradient(f, result.c_hat)
    assert np.max(np.abs(grad)) < 1e-8 * f(result.c_hat)


def test_huge_lambda_shrinks_to_zero(basis_p3):
    # ridge limit on a kernel of modest spectral scale (P = identity);
    # differential P inflates the top singular values so far that lambda=1
    # leaves them unshrunk and the 1e-6 ratio is unreachable by algebra
    km = assemble(
        basis_p3, identity_op(), identity_op(), identity_op(), KernelSpec(h=0.2)
    )
    U, F = random_dataset(basis_p3, n=5, seed=4)
    data = DataSet(U=U, F=F, basis=basis_p3)
    norm_at_1 = np.linalg.norm(fit(data, km, 1.0).c_hat)
    norm_at_1e9 = np.linalg.norm(fit(data, km, 1e9).c_hat)
    assert norm_at_1e9 < 1e-6 * norm_at_1


def test_predict_zero_operator(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=4, seed=5)
    data = DataSet(U=U, F=np.zeros_like(F), basis=basis_p3)
    result = fit(data, km_p3, lam=1.0)
    out = predict(result, FuncVec(np.array([1.0, -2.0, 0.5]), basis_p3))
    assert np.max(np.abs(out.coeffs)) < 1e-12


def test_predict_linearity(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=6)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = fit(data, km_p3, lam=0.1)
    u1 = FuncVec(np.array([1.0, 0.5, -0.25]), basis_p3)
    u2 = FuncVec(np.array([-0.5, 2.0, 1.0]), basis_p3)
    combo = FuncVec(2.0 * u1.coeffs - 3.0 * u2.coeffs, basis_p3)
    lhs = predict(result, combo).coeffs
    rhs = 2.0 * predict(result, u1).coeffs - 3.0 * predict(result, u2).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_noiseless_fit_interpolates(basis_p3, km_p3):
    U, _ = random_dataset(basis_p3, n=50, seed=7, noise=0.0)
    mults = (np.arange(1, 4) * np.pi) ** 2
    F = U * mults
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = fit(data, km_p3, lam=1e-8)
    for i in range(data.n):
        pred = predict(result, FuncVec(U[i], basis_p3)).coeffs
        assert np.linalg.norm(pred - F[i]) < 1e-3 * np.linalg.norm(F[i])


def test_predict_rejects_basis_mismatch(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=4, seed=8)
    result = fit(DataSet(U=U, F=F, basis=basis_p3), km_p3, lam=1.0)
    other = make_cosine_basis(p=4, n_quad=101)
    with pytest.raises(ValueError):
        predict(result, FuncVec(np.zeros(4), other))


def test_smoother_matches_predictions(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=8, seed=9)
    data = DataSet(U=U, F=F, basis=basis_p3)
    lam = 2.0
    result = fit(data, km_p3, lam)
    S = smoothing_matrix(data, km_p3, lam)
    fitted = np.stack(
        [predict(result, FuncVec(U[i], basis_p3)).coeffs for i in range(data.n)]
    )
    diff = fitted.flatten(order="F") - S.apply(F.flatten(order="F"))
    assert np.linalg.norm(diff) < 1e-9


def test_smoother_total_shrinkage(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=10)
    data = DataSet(U=U, F=F, basis=basis_p3)
    S = smoothing_matrix(data, km_p3, lam=1e12)
    assert S.trace() < 1e-6
    assert np.max(np.abs(S.to_dense())) < 1e-6


def test_smoother_eigenvalues_in_unit_interval(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=10, seed=11)
    data = DataSet(U=U, F=F, basis=basis_p3)
    S = smoothing_matrix(data, km_p3, lam=0.5).to_dense()
    assert np.max(np.abs(S - S.T)) < 1e-10 * max(1.0, np.max(np.abs(S)))
    eigs = np.linalg.eigvalsh((S + S.T) / 2)
    assert eigs.min() >= -1e-10
    assert eigs.max() <= 1 + 1e-10


def test_trace_strictly_decreasing_in_lambda(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=10, seed=12)
    data = DataSet(U=U, F=F, basis=basis_p3)
    traces = [smoothing_matrix(data, km_p3, lam).trace() for lam in 10.0 ** np.arange(6)]
    assert all(a > b for a, b in zip(traces, traces[1:]))


def test_rss_zero_for_perfect_fit(basis_p3, km_p3):
    U, _ = random_dataset(basis_p3, n=5, seed=13)
    data = DataSet(U=U, F=np.zeros_like(U), basis=basis_p3)
    result = fit(data, km_p3, lam=1.0)
    assert rss(result, data) == 0.0


def test_rss_and_gcv_null_model_limit(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=14)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = fit(data, km_p3, lam=1e12)
    total = float(np.sum(F**2))
    assert abs(rss(result, data) - total) < 1e-3 * total
    assert abs(gcv(result, data) - total / data.n) < 2e-3 * total / data.n


def test_gcv_degenerate_denominator():
    with pytest.raises(GcvDegenerateError) as excinfo:
        gcv_value(1.0, n=2, p=2, trace=4.0)
    assert excinfo.value.trace == 4.0


def test_gcv_sweep_single_element(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=15)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = gcv_sweep(data, km_p3, [7.5])
    assert result.best_lambda == 7.5
    assert len(result.rows) == 1


def test_gcv_sweep_tie_prefers_smaller_lambda(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=16)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = gcv_sweep(data, km_p3, [3.0, 3.0])
    assert result.best_lambda == 3.0
    assert [row.lam for row in result.rows] == [3.0, 3.0]


def test_gcv_sweep_validates_grid(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=17)
    data = DataSet(U=U, F=F, basis=basis_p3)
    with pytest.raises(ValueError):
        gcv_sweep(data, km_p3, [])
    with pytest.raises(ValueError):
        gcv_sweep(data, km_p3, [-1.0, 1.0])


def test_noiseless_rss_nondecreasing_in_lambda(basis_p3, km_p3):
    U, _ = random_dataset(basis_p3, n=20, seed=18, noise=0.0)
    F = U * (np.arange(1, 4) * np.pi) ** 2
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = gcv_sweep(data, km_p3, 10.0 ** np.arange(-2, 5))
    rss_vals = [row.rss for row in result.rows]
    assert all(a <= b + 1e-12 for a, b in zip(rss_vals, rss_vals[1:]))


def test_row_permutation_invariance(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=9, seed=19)
    perm = np.random.default_rng(20).permutation(9)
    lam = 1.5
    c_orig = fit(DataSet(U=U, F=F, basis=basis_p3), km_p3, lam).c_hat
    c_perm = fit(DataSet(U=U[perm], F=F[perm], basis=basis_p3), km_p3, lam).c_hat
    assert np.max(np.abs(c_orig - c_perm)) < 1e-9 * max(1.0, np.max(np.abs(c_orig)))
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    fitted = system.fitted(c_orig)
    system_p = RidgeSystem(DataSet(U=U[perm], F=F[perm], basis=basis_p3), km_p3)
    fitted_p = system_p.fitted(c_perm)
    assert np.max(np.abs(fitted[perm] - fitted_p)) < 1e-9 * max(1.0, np.max(np.abs(fitted)))


def test_spectrum_nonnegative_and_sorted(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=12, seed=21)
    data = DataSet(U=U, F=F, basis=basis_p3)
    gammas = spectrum_diag(data, km_p3, top_m=9)
    assert np.all(gammas >= 0)
    assert np.all(np.diff(gammas) <= 1e-15)


def test_spectrum_rank_bound_single_column(basis_p3, km_p3):
    rng = np.random.default_rng(22)
    U = np.zeros((10, 3))
    U[:, 0] = rng.uniform(-1, 1, 10)
    data = DataSet(U=U, F=rng.standard_normal((10, 3)), basis=basis_p3)
    gammas = spectrum_diag(data, km_p3, top_m=9)
    # rank of the design is at most p when U has one independent column
    assert np.sum(gammas > 1e-12 * gammas.max()) <= 3


def test_spectrum_decay_steeper_than_one(basis_p10):
    # empirical decay exponent of the kernel-vs-prediction spectrum must
    # exceed 1 for the smoothing theory to bite; the Gaussian kernel decays
    # much faster
    km = assemble(
        basis_p10, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.01)
    )
    rng = np.random.default_rng(23)
    U = rng.uniform(-np.sqrt(3), np.sqrt(3), (200, 10)) * np.arange(1, 11) ** -3.0
    F = U * (np.arange(1, 11) * np.pi) ** 2
    data = DataSet(U=U, F=F, basis=basis_p10)
    gammas = spectrum_diag(data, km, top_m=25)
    ks = np.arange(2, 21)
    slope = np.polyfit(np.log(ks), np.log(gammas[1:20]), 1)[0]
    assert slope < -1.0


def test_spectrum_validates_top_m(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=5, seed=24)
    data = DataSet(U=U, F=F, basis=basis_p3)
    with pytest.raises(ValueError):
        spectrum_diag(data, km_p3, top_m=10)


def test_indefinite_kernel_raises_singularity(basis_p3):
    bad = KernelMatrices(K=-np.eye(9), K_L=np.eye(9))
    U, F = random_dataset(basis_p3, n=4, seed=25)
    with pytest.raises(SingularSystemError):
        fit(DataSet(U=U, F=F, basis=basis_p3), bad, lam=1.0)


def test_fit_rejects_nonpositive_lambda(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=4, seed=26)
    data = DataSet(U=U, F=F, basis=basis_p3)
    with pytest.raises(ValueError):
        fit(data, km_p3, lam=0.0)


def test_fit_result_serializes(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=4, seed=27)
    result = fit(DataSet(U=U, F=F, basis=basis_p3), km_p3, lam=1.0)
    doc = result.to_json_dict()
    assert doc["lambda"] == 1.0
    assert len(doc["c_hat"]) == 9
    assert doc["provenance"]["cond_estimate"] > 0
