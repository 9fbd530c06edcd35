"""Tests for the parametric fit, wild multipliers, and bootstrap test."""

import numpy as np
import pytest

from diffreg import (
    DataSet,
    DegenerateDesignError,
    ParamFamily,
    bootstrap_test,
    fit_parametric,
    qn_statistic,
    wild_multipliers,
)
from diffreg.gof import GOLDEN_MINUS, GOLDEN_PLUS
from diffreg.regress import SmoothingMatrix

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


def test_parametric_fit_matrix_action(basis_p3):
    rng = np.random.default_rng(2)
    A0 = rng.standard_normal((3, 3))
    family = ParamFamily.from_matrix(A0)
    U = rng.uniform(-1, 1, (15, 3))
    data = DataSet(U=U, F=1.75 * U @ A0.T, basis=basis_p3)
    assert fit_parametric(data, family).theta == pytest.approx(1.75, rel=1e-12)


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


def test_qn_zero_residuals(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=5)
    from diffreg import smoothing_matrix

    S = smoothing_matrix(DataSet(U=U, F=F, basis=basis_p3), km_p3, lam=1.0)
    assert qn_statistic(S, np.zeros((6, 3))) == 0.0


def test_qn_zero_smoother(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=6)
    from diffreg import smoothing_matrix

    S = smoothing_matrix(DataSet(U=U, F=F, basis=basis_p3), km_p3, lam=1e15)
    assert qn_statistic(S, np.ones((6, 3))) < 1e-12


def test_qn_hand_computed_identity_smoother():
    # n=2, p=2, A = V = I and s2 = 1 at lambda = 0, so S = I: Q_n = (1^2 + 2^2) / 2
    S = SmoothingMatrix(G=np.eye(2), H=np.eye(2), d=np.ones(4), V=np.eye(4), s2=np.ones(4), lam=0.0)
    assert qn_statistic(S, np.array([[1.0, 0.0], [2.0, 0.0]])) == pytest.approx(2.5)


def test_qn_shape_check(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=7)
    from diffreg import smoothing_matrix

    S = smoothing_matrix(DataSet(U=U, F=F, basis=basis_p3), km_p3, lam=1.0)
    with pytest.raises(ValueError):
        qn_statistic(S, np.zeros((5, 3)))


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
