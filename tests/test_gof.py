"""Tests for the parametric fit, wild multipliers, and bootstrap test."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diffreg import (
    DataSet,
    DegenerateDesignError,
    KernelMatrices,
    ParamFamily,
    bootstrap_multipliers,
    bootstrap_test,
    fit,
    fit_parametric,
    make_cosine_basis,
    wild_multipliers,
)
from diffreg import gof
from diffreg.gof import GOLDEN_MINUS, GOLDEN_PLUS
from diffreg.regress import RidgeSystem

import dense
from conftest import random_dataset


def laplacian_family(basis):
    return ParamFamily.scaled_neg_laplacian(basis)


def test_parametric_fit_recovers_exact_member(basis_p3):
    rng = np.random.default_rng(0)
    U = rng.uniform(-1, 1, (20, 3))
    mults = (np.arange(1, 4) * np.pi) ** 2
    data = DataSet(U=U, F=3.0 * U * mults, basis=basis_p3)
    result = fit_parametric(data, laplacian_family(basis_p3))
    assert result.theta == pytest.approx(3.0, rel=1e-12)
    assert not result.clipped


def test_parametric_fit_zero_response_clips(basis_p3):
    rng = np.random.default_rng(1)
    U = rng.uniform(-1, 1, (10, 3))
    data = DataSet(U=U, F=np.zeros_like(U), basis=basis_p3)
    result = fit_parametric(data, laplacian_family(basis_p3))
    assert result.theta == 0.0
    assert result.theta_raw == 0.0
    assert result.clipped


def test_parametric_fit_degenerate_design(basis_p3):
    data = DataSet(U=np.zeros((5, 3)), F=np.ones((5, 3)), basis=basis_p3)
    with pytest.raises(DegenerateDesignError):
        fit_parametric(data, laplacian_family(basis_p3))



@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("command", ["fit", "bootstrap_test"])
def test_fit_and_bootstrap_reject_bad_lambda(basis_p3, km_p3, command, lam):
    U, F = random_dataset(basis_p3, n=30, seed=8)
    data = DataSet(U=U, F=F, basis=basis_p3)
    with pytest.raises(ValueError, match="lambda must be positive"):
        if command == "fit":
            fit(data, km_p3, lam)
        else:
            bootstrap_test(data, km_p3, lam, laplacian_family(basis_p3), B=100)


def test_wild_multiplier_support():
    rng = np.random.default_rng(3)
    draws = wild_multipliers(10_000, rng)
    assert set(np.unique(draws)) == {GOLDEN_MINUS, GOLDEN_PLUS}


def test_wild_multiplier_moments():
    rng = np.random.default_rng(4)
    draws = wild_multipliers(1_000_000, rng)
    assert abs(draws.mean()) < 0.005
    assert abs(np.mean(draws**2) - 1.0) < 0.01
    assert abs(np.mean(draws**3) - 1.0) < 0.02


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**300),
    B=st.sampled_from([1, 2, 7, 200]),
    n=st.integers(1, 30),
)
@example(seed=0, B=200, n=5)
@example(seed=2**32 - 1, B=7, n=5)
@example(seed=2**32, B=7, n=5)
@example(seed=2**128 - 1, B=7, n=5)
@example(seed=2**128, B=7, n=5)
@example(seed=2**200 + 1, B=7, n=5)
def test_bootstrap_multipliers_equal_the_spawned_streams(seed, B, n):
    spawned = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(B)]
    want = np.stack([wild_multipliers(n, rng) for rng in spawned])
    got = bootstrap_multipliers(n, B, seed)
    assert got.shape == (B, n)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**64), ValueError),
                                         (1.0, TypeError), ("3", TypeError)])
def test_bootstrap_multipliers_need_a_non_negative_integer_seed(seed, error):
    with pytest.raises(error):
        bootstrap_multipliers(5, 100, seed)


def test_bootstrap_multipliers_need_a_replicate():
    with pytest.raises(ValueError, match="B must be >= 1"):
        bootstrap_multipliers(5, 0, 3)


def test_a_derivation_that_drifts_from_numpy_raises(monkeypatch):
    monkeypatch.setattr(gof, "_PCG_MULT", gof._PCG_MULT + 2)
    with pytest.raises(RuntimeError, match="disagree with numpy"):
        bootstrap_multipliers(5, 100, 7)


def test_bootstrap_multipliers_are_safe_across_threads():
    want = {seed: bootstrap_multipliers(50, 100, seed) for seed in range(4)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            seeds = [seed for seed in range(4) for _ in range(10)]
            futures = [pool.submit(bootstrap_multipliers, 50, 100, seed) for seed in seeds]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(block, want[seed]) for seed, block in zip(seeds, got))


def test_bootstrap_multipliers_accept_numpy_integer_seeds():
    assert np.array_equal(bootstrap_multipliers(5, 3, np.uint64(9)), bootstrap_multipliers(5, 3, 9))


def test_qn_zero_residuals(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=5)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    assert dense.qn_statistic(system, 1.0, np.zeros((6, 3))) == 0.0


def test_qn_zero_smoother(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=6)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    assert dense.qn_statistic(system, 1e15, np.ones((6, 3))) < 1e-12


def test_qn_hand_computed_identity_smoother():
    # n=2, p=2 with U = C = M = M_L = I: at lambda = 0 the smoother is the
    # projection onto the range of the invertible design, S = I up to the
    # jitter, so Q_n = (1^2 + 2^2) / 2
    km = KernelMatrices(C=np.eye(2), M=np.eye(2), M_L=np.eye(2))
    data = DataSet(U=np.eye(2), F=np.zeros((2, 2)), basis=make_cosine_basis(2, 11))
    system = RidgeSystem(data, km)
    residuals = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert dense.qn_statistic(system, 0.0, residuals) == pytest.approx(2.5)


def test_qn_shape_check(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=7)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    with pytest.raises(ValueError):
        dense.qn_statistic(system, 1.0, np.zeros((5, 3)))


def test_bootstrap_rejects_small_B(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=8)
    data = DataSet(U=U, F=F, basis=basis_p3)
    with pytest.raises(ValueError):
        bootstrap_test(data, km_p3, 1.0, laplacian_family(basis_p3), B=50)


def test_bootstrap_rejects_unknown_strategy(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=9)
    data = DataSet(U=U, F=F, basis=basis_p3)
    with pytest.raises(ValueError):
        bootstrap_test(data, km_p3, 1.0, laplacian_family(basis_p3), strategy="jackknife")


def test_bootstrap_reproducible_bitwise(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=10, seed=10)
    data = DataSet(U=U, F=F, basis=basis_p3)
    kwargs = dict(B=100, strategy="mixed", seed=42)
    r1 = bootstrap_test(data, km_p3, 1.0, laplacian_family(basis_p3), **kwargs)
    r2 = bootstrap_test(data, km_p3, 1.0, laplacian_family(basis_p3), **kwargs)
    assert r1.q_n == r2.q_n
    assert np.array_equal(r1.bootstrap_values, r2.bootstrap_values)
    assert r1.p_value == r2.p_value


@pytest.mark.parametrize("cells", [1, 3])
@pytest.mark.parametrize("strategy", gof.STRATEGIES)
def test_residual_test_of_c_cells_equals_one_bootstrap_test_per_cell(
    basis_p3, km_p3, cells, strategy
):
    U, F = random_dataset(basis_p3, n=10, seed=17)
    mults = laplacian_family(basis_p3).multipliers
    # cell 1 responds to -U: its least-squares theta is negative and clipped to 0
    F = np.stack([F, F - 4.0 * U * mults, 3.0 * F])[:cells]
    lams = [1.0, 0.3, 30.0][:cells]
    family = laplacian_family(basis_p3)
    datasets = [DataSet(U=U, F=f, basis=basis_p3) for f in F]
    thetas, eps_null, eps_fit = [], [], []
    for data, lam in zip(datasets, lams):
        system = RidgeSystem(data, km_p3)
        thetas.append(fit_parametric(data, family))
        eps_null.append(data.F - family.apply(U, thetas[-1].theta))
        eps_fit.append(data.F - system.fitted(system.solve(lam)))
    stacked = RidgeSystem(datasets[0], km_p3, responses=F)
    q_n, q_boot, p_value = gof.residual_test(stacked, lams, np.stack(eps_null),
                                             np.stack(eps_fit), 100, strategy, 6)
    assert q_n.shape == p_value.shape == (cells,) and q_boot.shape == (cells, 100)
    n_para = {"parametric": 100, "nonparametric": 0, "mixed": 33}[strategy]
    for c, (theta, data, lam) in enumerate(zip(thetas, datasets, lams, strict=True)):
        alone = bootstrap_test(data, km_p3, lam, family, B=100, strategy=strategy, seed=6)
        assert theta == alone.theta
        assert (q_n[c], p_value[c], lam) == (alone.q_n, alone.p_value, alone.lam)
        np.testing.assert_array_equal(q_boot[c], alone.bootstrap_values)
        assert alone.to_json_dict() == {
            "theta_hat": theta.theta, "theta_raw": theta.theta_raw,
            "theta_clipped": theta.clipped, "q_n": q_n[c], "p_value": p_value[c],
            "strategy": strategy, "lambda": lam, "seed": 6, "n_bootstrap": 100,
            "n_parametric_replicates": n_para,
        }
    assert cells == 1 or thetas[1].clipped


def test_residual_test_checks_its_arguments(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=10, seed=17)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    eps = (F - U)[None]
    for B, strategy, lams, message in (
        (100, "bogus", [1.0], "strategy must be one of"),
        (99, "mixed", [1.0], "B must be >= 100"),
        (5, "parametric", [1.0], "B must be >= 100"),
        (100, "mixed", [1.0, 2.0], r"zip\(\) argument 2 is shorter"),
        (100, "nonparametric", [], "lambda must be nonempty and positive"),
    ):
        with pytest.raises(ValueError, match=message):
            gof.residual_test(system, lams, eps, eps, B, strategy, 6)
    with pytest.raises(ValueError, match=r"zip\(\) argument 2 is longer"):
        gof.residual_test(system, [1.0], eps[[0, 0]], eps[[0, 0]], 100, "nonparametric", 6)


@pytest.mark.parametrize("lam", [-1.0, 0.0, np.nan, np.inf, 1e308])
def test_residual_test_checks_its_lambdas(basis_p3, km_p3, lam):
    # 1e308 is finite, but n * lambda overflows at n = 10
    U, F = random_dataset(basis_p3, n=10, seed=17)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    eps = np.stack([F - U, F - 2 * U])
    with pytest.raises(ValueError, match="lambda must"):
        gof.residual_test(system, [1.0, lam], eps, eps, 100, "mixed", 6)


def test_bootstrap_seed_changes_replicates(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=10, seed=11)
    data = DataSet(U=U, F=F, basis=basis_p3)
    r1 = bootstrap_test(data, km_p3, 1.0, laplacian_family(basis_p3), B=100, seed=1)
    r2 = bootstrap_test(data, km_p3, 1.0, laplacian_family(basis_p3), B=100, seed=2)
    assert not np.array_equal(r1.bootstrap_values, r2.bootstrap_values)


def test_bootstrap_scale_equivariance(basis_p3, km_p3):
    # scaling F scales all residuals by the same factor (the family is
    # linear in theta), so Q_n and every replicate scale by s^2 and the
    # p-value is untouched
    U, F = random_dataset(basis_p3, n=10, seed=12)
    family = laplacian_family(basis_p3)
    scale = 2.0
    r1 = bootstrap_test(DataSet(U=U, F=F, basis=basis_p3), km_p3, 1.0, family, B=100, seed=7)
    r2 = bootstrap_test(
        DataSet(U=U, F=scale * F, basis=basis_p3), km_p3, 1.0, family, B=100, seed=7
    )
    assert r2.q_n == pytest.approx(scale**2 * r1.q_n, rel=1e-10)
    np.testing.assert_allclose(r2.bootstrap_values, scale**2 * r1.bootstrap_values, rtol=1e-10)
    assert r2.p_value == r1.p_value


def test_bootstrap_mixed_replicate_split(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=8, seed=13)
    data = DataSet(U=U, F=F, basis=basis_p3)
    family = laplacian_family(basis_p3)
    result = bootstrap_test(data, km_p3, 1.0, family, B=200, strategy="mixed", seed=3)
    assert result.n_parametric_replicates == round(200 / 3)
    para = bootstrap_test(data, km_p3, 1.0, family, B=200, strategy="parametric", seed=3)
    nonp = bootstrap_test(data, km_p3, 1.0, family, B=200, strategy="nonparametric", seed=3)
    assert para.n_parametric_replicates == 200
    assert nonp.n_parametric_replicates == 0
    # shared multiplier streams: mixed replicates coincide blockwise
    split = result.n_parametric_replicates
    np.testing.assert_array_equal(result.bootstrap_values[:split], para.bootstrap_values[:split])
    np.testing.assert_array_equal(result.bootstrap_values[split:], nonp.bootstrap_values[split:])


def test_bootstrap_zero_residuals_counting_convention(basis_p3, km_p3):
    # exact family member: null residuals vanish, Q_n = 0 = every
    # replicate, and the ">=" counting rule drives the p-value to 0
    rng = np.random.default_rng(14)
    U = rng.uniform(-1, 1, (12, 3))
    mults = (np.arange(1, 4) * np.pi) ** 2
    data = DataSet(U=U, F=2.0 * U * mults, basis=basis_p3)
    result = bootstrap_test(
        data, km_p3, 1.0, laplacian_family(basis_p3), B=100, strategy="parametric", seed=5
    )
    assert result.q_n == 0.0
    assert np.all(result.bootstrap_values == 0.0)
    assert result.p_value == 0.0


def test_gof_result_serializes(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=8, seed=15)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = bootstrap_test(data, km_p3, 1.0, laplacian_family(basis_p3), B=100, seed=9)
    doc = result.to_json_dict()
    assert 0.0 <= doc["p_value"] <= 1.0
    assert doc["n_bootstrap"] == 100
    assert doc["seed"] == 9


def test_p_value_recomputable_from_stored_arrays(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=8, seed=16)
    data = DataSet(U=U, F=F, basis=basis_p3)
    result = bootstrap_test(data, km_p3, 1.0, laplacian_family(basis_p3), B=100, seed=10)
    recomputed = 1.0 - np.count_nonzero(result.q_n >= result.bootstrap_values) / 100
    assert result.p_value == recomputed
