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
    SweepResult,
    assemble,
    fit,
    gcv_sweep,
    identity_op,
    make_cosine_basis,
    neg_laplacian,
    predict,
    spectrum_diag,
)
from diffreg.gof import ParamFamily, bootstrap_test
from diffreg.kernels import load_kernel_matrices, save_kernel_matrices
from diffreg.regress import RidgeSystem, gcv_value, lambda_path
from diffreg.sim import SimConfig, mc_kernels, replication_dataset, run_mc

import dense
from conftest import random_dataset


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
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    c = np.random.default_rng(0).standard_normal(9)
    expected = (dense.design_by_loops(U, dense.K_L(km_p3)) @ c).reshape(5, 3, order="F")
    np.testing.assert_allclose(system.fitted(c), expected, atol=1e-12)


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
    A = dense.design_by_loops(U, dense.K_L(km_p3))
    y = F.flatten(order="F")
    oracle = np.linalg.solve(A.T @ A + data.n * lam * dense.K_eps(km_p3), A.T @ y)
    assert np.max(np.abs(result.c_hat - oracle)) < 1e-8 * max(1.0, np.max(np.abs(oracle)))


def test_gradient_vanishes_at_solution(basis_p3, km_p3):
    # the solved objective carries the documented jitter on the factors of K; the
    # jitter-free gradient check runs in the acceptance suite at its own
    # tolerance
    U, F = random_dataset(basis_p3, n=3, seed=3)
    data = DataSet(U=U, F=F, basis=basis_p3)
    lam = 0.5
    result = fit(data, km_p3, lam)
    A = dense.design_by_loops(U, dense.K_L(km_p3))
    y = F.flatten(order="F")
    f = lambda c: objective(c, A, y, dense.K_eps(km_p3), data.n, lam)
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
    system = RidgeSystem(data, km_p3)
    fitted = np.stack(
        [predict(result, FuncVec(U[i], basis_p3)).coeffs for i in range(data.n)]
    )
    diff = fitted.flatten(order="F") - dense.smooth(system, lam, F.flatten(order="F"))
    assert np.linalg.norm(diff) < 1e-9


def test_smoother_total_shrinkage(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=10)
    data = DataSet(U=U, F=F, basis=basis_p3)
    system = RidgeSystem(data, km_p3)
    assert system.trace(1e12) < 1e-6
    assert np.max(np.abs(dense.smoother(system, 1e12))) < 1e-6


def test_smoother_eigenvalues_in_unit_interval(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=10, seed=11)
    data = DataSet(U=U, F=F, basis=basis_p3)
    S = dense.smoother(RidgeSystem(data, km_p3), 0.5)
    assert np.max(np.abs(S - S.T)) < 1e-10 * max(1.0, np.max(np.abs(S)))
    eigs = np.linalg.eigvalsh((S + S.T) / 2)
    assert eigs.min() >= -1e-10
    assert eigs.max() <= 1 + 1e-10


def test_trace_strictly_decreasing_in_lambda(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=10, seed=12)
    data = DataSet(U=U, F=F, basis=basis_p3)
    traces = RidgeSystem(data, km_p3).trace(10.0 ** np.arange(6))
    assert all(a > b for a, b in zip(traces, traces[1:]))


def test_lambda_axis_broadcasts_and_scalars_stay_scalars(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=19)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    lams = np.array([0.1, 1.0, 10.0, 100.0])
    c = system.solve(lams)
    assert c.shape == (4, 9) and system.operator_matrix(c).shape == (4, 3, 3)
    assert system.fitted(c).shape == (4, 6, 3) and system.trace(lams).shape == (4,)
    for k, lam in enumerate(lams):
        c_k = system.solve(lam)
        assert c_k.shape == (9,) and system.fitted(c_k).shape == (6, 3)
        assert np.max(np.abs(c_k - c[k])) <= 1e-12 * np.max(np.abs(c[k]))
        # a 0-d array would not format as a float in the CLI's CSV writer
        trace = system.trace(lam)
        assert isinstance(trace, float) and trace == pytest.approx(system.trace(lams)[k])


def test_rss_zero_for_perfect_fit(basis_p3, km_p3):
    U, _ = random_dataset(basis_p3, n=5, seed=13)
    data = DataSet(U=U, F=np.zeros_like(U), basis=basis_p3)
    result = fit(data, km_p3, lam=1.0)
    assert dense.rss(result, data) == 0.0


def test_rss_and_gcv_null_model_limit(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=14)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = fit(data, km_p3, lam=1e12)
    total = float(np.sum(F**2))
    assert abs(dense.rss(result, data) - total) < 1e-3 * total
    assert abs(dense.gcv(result, data) - total / data.n) < 2e-3 * total / data.n


def test_gcv_rejects_other_data_and_rss_accepts_it(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=8, seed=22)
    data = DataSet(U=U, F=F, basis=basis_p3)
    other = DataSet(U=U, F=F + 0.5, basis=basis_p3)
    result = fit(data, km_p3, lam=1.0)
    with pytest.raises(ValueError, match="dataset the fit was computed from"):
        dense.gcv(result, other)
    # a held-out residual sum of squares is meaningful
    assert dense.rss(result, other) > dense.rss(result, data)


def test_gcv_degenerate_denominator():
    with pytest.raises(GcvDegenerateError) as excinfo:
        gcv_value(1.0, n=2, p=2, trace=4.0)
    assert excinfo.value.trace == 4.0


def test_gcv_sweep_single_element(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=15)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = gcv_sweep(data, km_p3, [7.5])
    assert result.best_lambda == 7.5
    for values in (result.lambdas, result.rss, result.gcv, result.trace):
        assert values.shape == (1,)


def test_gcv_sweep_tie_prefers_smaller_lambda(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=16)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = gcv_sweep(data, km_p3, [3.0, 3.0])
    assert result.best_lambda == 3.0
    assert result.lambdas.tolist() == [3.0, 3.0]
    assert result.gcv[0] == result.gcv[1]


def test_gcv_sweep_sorts_the_grid_and_picks_the_gcv_minimum(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=12, seed=21)
    data = DataSet(U=U, F=F, basis=basis_p3)
    grid = [1e2, 1e-2, 1e4, 1e0, 1e-1, 1e3, 1e1]
    result = gcv_sweep(data, km_p3, grid)
    np.testing.assert_array_equal(result.lambdas, sorted(grid))
    for values in (result.rss, result.gcv, result.trace):
        assert values.shape == (len(grid),)
    assert type(result.best_lambda) is float
    assert result.best_lambda == result.lambdas[np.argmin(result.gcv)]
    system = RidgeSystem(data, km_p3)
    for k, lam in enumerate(result.lambdas):
        single = fit(data, km_p3, lam)
        assert result.rss[k] == pytest.approx(dense.rss(single, data), rel=1e-9)
        assert result.gcv[k] == pytest.approx(dense.gcv(single, data), rel=1e-9)
        assert result.trace[k] == pytest.approx(system.trace(lam), rel=1e-12)


def test_gcv_sweep_validates_grid(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=17)
    data = DataSet(U=U, F=F, basis=basis_p3)
    with pytest.raises(ValueError):
        gcv_sweep(data, km_p3, [])
    with pytest.raises(ValueError):
        gcv_sweep(data, km_p3, [-1.0, 1.0])
    with pytest.raises(ValueError):
        gcv_sweep(data, km_p3, [1.0, float("nan")])
    with pytest.raises(ValueError):
        gcv_sweep(data, km_p3, [1.0, float("inf")])


def test_noiseless_rss_nondecreasing_in_lambda(basis_p3, km_p3):
    U, _ = random_dataset(basis_p3, n=20, seed=18, noise=0.0)
    F = U * (np.arange(1, 4) * np.pi) ** 2
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = gcv_sweep(data, km_p3, 10.0 ** np.arange(-2, 5))
    rss_vals = result.rss.tolist()
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
    bad = KernelMatrices(C=-np.eye(3), M=np.eye(3), M_L=np.eye(3))
    U, F = random_dataset(basis_p3, n=4, seed=25)
    data = DataSet(U=U, F=F, basis=basis_p3)
    # the kernel's factors are computed on first use; a failure must not
    # leave a cached result behind, so every later use fails the same way
    messages = []
    for _ in range(2):
        with pytest.raises(SingularSystemError) as info:
            fit(data, bad, lam=1.0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_indefinite_M_factor_raises_singularity(basis_p3):
    # C is positive definite; M keeps a negative eigenvalue after its jitter
    bad = KernelMatrices(C=np.eye(3), M=np.diag([1.0, 1.0, -1.0]), M_L=np.eye(3))
    U, F = random_dataset(basis_p3, n=4, seed=25)
    data = DataSet(U=U, F=F, basis=basis_p3)
    uses = [
        lambda: fit(data, bad, lam=1.0),
        lambda: gcv_sweep(data, bad, [1.0, 10.0]),
        lambda: spectrum_diag(data, bad, top_m=1),
        lambda: fit(data, bad, lam=1.0),
    ]
    for use in uses:
        with pytest.raises(SingularSystemError, match="kernel factor M is not positive definite"):
            use()


def test_fit_records_both_factor_jitters(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=4, seed=28)
    jitter = fit(DataSet(U=U, F=F, basis=basis_p3), km_p3, lam=1.0).provenance["jitter"]
    assert jitter == {"C": 1e-10 * np.trace(km_p3.C) / 3, "M": 1e-10 * np.trace(km_p3.M) / 3}


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


def test_kernels_assembled_on_another_basis_are_rejected(basis_p3, km_p3, tmp_path):
    U, F = random_dataset(basis_p3, 12, seed=3)
    save_kernel_matrices(km_p3, str(tmp_path / "k.npz"))
    cached = load_kernel_matrices(str(tmp_path / "k.npz"))
    for other in (make_cosine_basis(3, 101, (0.5, 2.0)), make_cosine_basis(3, 61)):
        data = DataSet(U=U, F=F, basis=other)
        family = ParamFamily.scaled_neg_laplacian(other)
        for km in (km_p3, cached):
            for run in (
                lambda: fit(data, km, 1.0),
                lambda: gcv_sweep(data, km, [1.0, 10.0]),
                lambda: spectrum_diag(data, km, 2),
                lambda: bootstrap_test(data, km, 1.0, family, B=100),
            ):
                with pytest.raises(ValueError, match="assembled on basis .* the data's is"):
                    run()
    # a hand-built KernelMatrices records no basis, so only its size is checked
    bare = KernelMatrices(C=km_p3.C, M=km_p3.M, M_L=km_p3.M_L)
    fit(DataSet(U=U, F=F, basis=make_cosine_basis(3, 61)), bare, 1.0)
    U4, F4 = random_dataset(make_cosine_basis(4, 101), 12, seed=3)
    with pytest.raises(ValueError, match="expected p = 4"):
        fit(DataSet(U=U4, F=F4, basis=make_cosine_basis(4, 101)), bare, 1.0)


def test_ridge_system_holds_nothing_larger_than_the_data():
    # p = 10, n = 200: a p^2 x p^2 array would hold 10 000 entries, U holds n p = 2000
    basis = make_cosine_basis(10, 201)
    km = assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.01))
    U, F = random_dataset(basis, n=200, seed=4)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis), km)
    arrays = {k: v for k, v in vars(system).items() if isinstance(v, np.ndarray)}
    assert arrays and max(a.size for a in arrays.values()) <= 200 * 10, {
        k: a.shape for k, a in arrays.items()
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rank_deficient_solve_is_minimum_norm():
    # n=2 samples at p=10: 20 equations for 100 coefficients
    config = SimConfig(n=2, run_test=False, lambda_grid=(1e-300,), refine_rounds=0)
    basis, km = mc_kernels(config)
    for rep in range(2):
        data, _ = replication_dataset(config, rep, basis)
        system = RidgeSystem(data, km)
        assert np.count_nonzero(system.s2 == 0) == 80
        c_hat = system.solve(1e-300)
        # the zeroed components held roundoff; divided by n lambda they reached 1e287
        assert np.max(np.abs(c_hat)) < 1e-2
        assert np.max(np.abs(system.fitted(c_hat) - data.F)) < 1e-10 * np.max(np.abs(data.F))
        with pytest.raises(GcvDegenerateError):
            gcv_sweep(data, km, [1e-300])
    # the study fails on the degenerate GCV denominator, not on an overflow first
    skip_all = SimConfig(
        n=2, reps=2, run_test=False, lambda_grid=(1e-300,), refine_rounds=0, skip_failures=True
    )
    with pytest.raises(RuntimeError, match="replication 0 failed: GCV denominator degenerate"):
        run_mc(skip_all, kernels=(basis, km))


def test_a_response_stack_matches_one_system_per_response(basis_p3, km_p3):
    U, _ = random_dataset(basis_p3, n=7, seed=23)
    F = np.random.default_rng(23).standard_normal((3, 7, 3))
    stacked = RidgeSystem(DataSet(U=U, F=F[0], basis=basis_p3), km_p3, responses=F)
    grid = np.array([0.1, 1.0, 10.0])
    path, operators = lambda_path(stacked, grid)
    assert operators.shape == (3, 3, 3, 3) and path.rss.shape == path.gcv.shape == (3, 3)
    lams = np.array([[0.5], [2.0], [8.0]]) * np.array([1.0, 3.0])  # a row of lambdas per response
    coefs = stacked.solve(lams)
    assert coefs.shape == (3, 2, 9) and stacked.solve(1.0).shape == (3, 1, 9)
    for c in range(3):
        alone = RidgeSystem(DataSet(U=U, F=F[c], basis=basis_p3), km_p3)
        want, want_operators = lambda_path(alone, grid)
        np.testing.assert_array_equal(operators[c], want_operators)
        np.testing.assert_array_equal(path.rss[c], want.rss)
        np.testing.assert_array_equal(path.gcv[c], want.gcv)
        np.testing.assert_array_equal(path.trace, want.trace)
        np.testing.assert_array_equal(coefs[c], alone.solve(lams[c]))
        assert path.best_lambda[c] == want.best_lambda
    assert path.best_lambda.shape == (3,)
    for bad in (F[0], F[:, :6]):
        with pytest.raises(ValueError, match=r"responses are \(.*\), expected \(C, 7, 3\)"):
            RidgeSystem(DataSet(U=U, F=F[0], basis=basis_p3), km_p3, responses=bad)


def test_best_lambda_of_a_stacked_sweep_is_one_per_row_with_ties_to_the_smaller():
    lambdas = np.array([0.1, 1.0, 10.0])
    gcv = np.array([[3.0, 2.0, 2.0], [1.0, 1.0, 5.0], [4.0, 3.0, 0.5]])
    stacked = SweepResult(lambdas=lambdas, rss=gcv, gcv=gcv, trace=lambdas)
    np.testing.assert_array_equal(stacked.best_lambda, [1.0, 0.1, 10.0])
    for row, want in zip(gcv, [1.0, 0.1, 10.0]):
        single = SweepResult(lambdas=lambdas, rss=row, gcv=row, trace=lambdas).best_lambda
        assert type(single) is float and single == want


@pytest.mark.parametrize("case", ["zero_column", "n_below_p", "noiseless", "stack"])
def test_the_p_by_p_route_matches_explicit_n_by_p_sums(case):
    # RSS and ESS from U = QR against the sums over the n x p fits they replace
    n, p = (2, 10) if case == "n_below_p" else (40, 6)
    config = SimConfig(n=n, p=p, omega=0.84, snr=np.inf if case == "noiseless" else 3.0, seed=31)
    basis, km = mc_kernels(config)
    data, mu = replication_dataset(config, 0, basis)
    U = data.U.copy()
    if case == "zero_column":
        U[:, 2] = 0.0
    stack = np.stack([data.F, 2.0 * data.F + 1.0, -data.F]) if case == "stack" else None
    system = RidgeSystem(DataSet(U=U, F=data.F, basis=basis), km, responses=stack)
    operators = system.operator_matrix(system.solve(np.array([1e-6, 1e-2, 1.0, 1e2])))
    assert "_qr" not in vars(system)  # factored on first use only
    fits = U @ operators.swapaxes(-1, -2)
    rss = ((system.F - fits) ** 2).sum(axis=(-2, -1))
    scale = float(np.sum(system.F**2))
    np.testing.assert_allclose(system.residual_sq_norms(operators), rss, rtol=1e-12,
                               atol=1e-12 * scale)
    errors = operators - np.diag(mu)
    ess = ((U @ errors.swapaxes(-1, -2)) ** 2).sum(axis=(-2, -1))
    np.testing.assert_allclose(system.fitted_sq_norms(errors), ess, rtol=1e-12,
                               atol=1e-12 * float(np.sum((U * mu) ** 2)))
    if case == "noiseless":
        assert rss.min() < 1e-6 * scale
