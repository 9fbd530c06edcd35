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
    KernelSpec,
    ParamFamily,
    assemble,
    bootstrap_multipliers,
    bootstrap_test,
    fit,
    fit_parametric,
    identity_op,
    make_cosine_basis,
    neg_laplacian,
    qn_statistic,
    wild_multipliers,
)
from diffreg import gof
from diffreg.gof import GOLDEN_MINUS, GOLDEN_PLUS
from diffreg.regress import RidgeSystem

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
    assert qn_statistic(system, 1.0, np.zeros((6, 3))) == 0.0


def test_qn_zero_smoother(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=6)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    assert qn_statistic(system, 1e15, np.ones((6, 3))) < 1e-12


def test_qn_hand_computed_identity_smoother():
    # n=2, p=2 with U = C = M = M_L = I: at lambda = 0 the smoother is the
    # projection onto the range of the invertible design, S = I up to the
    # jitter, so Q_n = (1^2 + 2^2) / 2
    km = KernelMatrices(C=np.eye(2), M=np.eye(2), M_L=np.eye(2))
    data = DataSet(U=np.eye(2), F=np.zeros((2, 2)), basis=make_cosine_basis(2, 11))
    system = RidgeSystem(data, km)
    assert qn_statistic(system, 0.0, np.array([[1.0, 0.0], [2.0, 0.0]])) == pytest.approx(2.5)


def test_qn_shape_check(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=6, seed=7)
    system = RidgeSystem(DataSet(U=U, F=F, basis=basis_p3), km_p3)
    with pytest.raises(ValueError):
        qn_statistic(system, 1.0, np.zeros((5, 3)))


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


def test_bootstrap_system_must_be_built_from_the_same_objects(basis_p3, km_p3):
    U, F = random_dataset(basis_p3, n=10, seed=12)
    data = DataSet(U=U, F=F, basis=basis_p3)
    other = DataSet(U=U, F=F[::-1].copy(), basis=basis_p3)
    family = laplacian_family(basis_p3)
    own = bootstrap_test(data, km_p3, 1.0, family, B=100, system=RidgeSystem(data, km_p3))
    fresh = bootstrap_test(data, km_p3, 1.0, family, B=100)
    assert own.q_n == fresh.q_n
    assert np.array_equal(own.bootstrap_values, fresh.bootstrap_values)
    other_km = assemble(
        basis_p3, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.3)
    )
    for system in (RidgeSystem(other, km_p3), RidgeSystem(data, other_km)):
        with pytest.raises(ValueError, match="another dataset or other kernel matrices"):
            bootstrap_test(data, km_p3, 1.0, family, B=100, system=system)


def test_bootstrap_on_given_multipliers(basis_p3, km_p3, monkeypatch):
    U, F = random_dataset(basis_p3, n=10, seed=13)
    data = DataSet(U=U, F=F, basis=basis_p3)
    family = laplacian_family(basis_p3)
    drawn = bootstrap_test(data, km_p3, 1.0, family, B=100, seed=5)
    block = bootstrap_multipliers(10, 100, 5)
    monkeypatch.setattr(gof, "bootstrap_multipliers", None)  # a draw would fail
    given = bootstrap_test(data, km_p3, 1.0, family, B=100, seed=5, multipliers=block)
    assert given.q_n == drawn.q_n and given.p_value == drawn.p_value
    assert np.array_equal(given.bootstrap_values, drawn.bootstrap_values)
    for shape in ((99, 10), (100, 9), (10, 100), (100 * 10,)):
        with pytest.raises(ValueError, match=r"multipliers are .*, expected \(100, 10\)"):
            bootstrap_test(data, km_p3, 1.0, family, B=100, seed=5, multipliers=np.ones(shape))


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
