"""Tests for data generation, calibration, ESS/TSS, and the MC harness."""

import numpy as np
import pytest

import diffreg.sim as sim
from diffreg import (
    SimConfig,
    calibrate_sigma,
    ess,
    gen_dataset,
    make_cosine_basis,
    replication_dataset,
    run_mc,
    true_multipliers,
    tss,
)


def test_calibrate_sigma_closed_form_single_term():
    # p=1, omega=0, snr=1: sigma = sqrt(mu_1^2 / 1) = pi^2
    assert calibrate_sigma(omega=0.0, snr=1.0, p=1) == pytest.approx(np.pi**2, rel=1e-12)


def test_calibrate_sigma_inverse_in_snr():
    s1 = calibrate_sigma(omega=0.5, snr=2.0)
    s2 = calibrate_sigma(omega=0.5, snr=4.0)
    assert s1 == pytest.approx(2.0 * s2, rel=1e-12)


def test_calibrate_sigma_eigen_sign():
    lap = (np.arange(1, 11) * np.pi) ** 2
    ks = np.arange(1, 11)
    for sign, mu in (("minus", lap - 4.0), ("plus", lap + 4.0)):
        expected = np.sqrt(np.sum(ks**-6.0 * mu**2) / (10 * 9.0))
        assert calibrate_sigma(2.0, 3.0, eigen_sign=sign) == pytest.approx(expected, rel=1e-12)


def test_scores_bounded_and_unit_variance():
    config = SimConfig(n=10_000, p=10, seed=0)
    data, _ = gen_dataset(config, np.random.default_rng(0))
    Z = data.U / np.arange(1, 11) ** -3.0
    assert np.max(np.abs(Z)) < np.sqrt(3.0)
    assert abs(Z.var() - 1.0) < 0.02


def test_noiseless_generation_is_exact_laplacian_action():
    config = SimConfig(n=50, omega=0.0, snr=np.inf, seed=1)
    data, mu = gen_dataset(config, np.random.default_rng(1))
    np.testing.assert_array_equal(mu, (np.arange(1, 11) * np.pi) ** 2)
    np.testing.assert_array_equal(data.F, data.U * mu)


def test_predictor_energy_matches_zeta_sum():
    # E||U||^2 = sum_k k^-6, partial zeta sum as the oracle
    config = SimConfig(n=10_000, p=10, seed=2)
    data, _ = gen_dataset(config, np.random.default_rng(2))
    expected = float(np.sum(np.arange(1, 11) ** -6.0))
    assert expected == pytest.approx(1.01734, abs=1e-5)
    observed = float(np.mean(np.sum(data.U**2, axis=1)))
    assert abs(observed - expected) < 0.02 * expected


def test_empirical_snr_self_consistency():
    config = SimConfig(n=200, omega=0.0, snr=3.0, seed=3)
    data, mu = gen_dataset(config, np.random.default_rng(3))
    signal = np.sum((data.U * mu) ** 2)
    noise = np.sum((data.F - data.U * mu) ** 2)
    assert np.sqrt(signal / noise) == pytest.approx(3.0, abs=0.1)


def test_ess_zero_for_true_operator():
    config = SimConfig(n=30, omega=0.7, snr=2.0, seed=4)
    data, mu = gen_dataset(config, np.random.default_rng(4))
    assert ess(data.U * mu, data, mu) == 0.0


def test_ess_of_zero_estimator_is_tss():
    config = SimConfig(n=30, omega=0.7, snr=2.0, seed=5)
    data, mu = gen_dataset(config, np.random.default_rng(5))
    assert ess(np.zeros_like(data.U), data, mu) == pytest.approx(tss(data, mu))


def test_tss_spectral_vs_quadrature():
    config = SimConfig(n=20, omega=1.0, snr=2.0, seed=6)
    basis = make_cosine_basis(10, 201)
    data, mu = gen_dataset(config, np.random.default_rng(6), basis)
    spectral = tss(data, mu)
    values = basis.quad_values() @ (data.U * mu).T  # D(U_i) on the grid
    quadrature = float(np.sum(basis.quad_weights @ values**2))
    assert abs(spectral - quadrature) < 1e-8 * spectral


def test_ess_theta_exactly_quadratic_in_sigma():
    # same (Z, eps) draws at two noise scales: theta_hat - 1 is linear in
    # sigma, so the parametric ESS scales exactly by the variance ratio
    base = dict(n=40, omega=0.0, reps=1, seed=7, run_test=False, refine_rounds=0)
    report_a = run_mc(SimConfig(snr=3.0, **base))
    report_b = run_mc(SimConfig(snr=6.0, **base))
    sigma_a = calibrate_sigma(0.0, 3.0)
    sigma_b = calibrate_sigma(0.0, 6.0)
    ratio = report_a.records[0].ess_theta / report_b.records[0].ess_theta
    assert ratio == pytest.approx((sigma_a / sigma_b) ** 2, rel=1e-10)


def test_run_mc_deterministic():
    config = SimConfig(n=40, reps=3, seed=8, B=100, refine_rounds=1)
    r1 = run_mc(config)
    r2 = run_mc(config)
    for a, b in zip(r1.records, r2.records):
        np.testing.assert_array_equal(a.ess_lambda, b.ess_lambda)
        assert a.p_value == b.p_value
        assert a.theta_hat == b.theta_hat


def test_run_mc_thread_count_does_not_change_results():
    config = SimConfig(n=40, reps=4, seed=9, B=100, refine_rounds=0)
    serial = run_mc(config, max_workers=1)
    threaded = run_mc(config, max_workers=3)
    for a, b in zip(serial.records, threaded.records):
        np.testing.assert_array_equal(a.gcv_lambda, b.gcv_lambda)
        assert a.p_value == b.p_value


def test_run_mc_single_rep_aggregation_identity():
    config = SimConfig(n=40, reps=1, seed=10, B=100)
    report = run_mc(config)
    summary = report.summary()
    rec = report.records[0]
    assert summary["ess_theta"]["mean"] == pytest.approx(rec.ess_theta)
    assert summary["ess_theta"]["se"] == 0.0
    assert summary["per_lambda"]["1000"]["ess"]["mean"] == pytest.approx(rec.ess_lambda[3])


def test_run_mc_records_match_replication_dataset():
    config = SimConfig(n=30, reps=2, seed=11, run_test=False, refine_rounds=0)
    report = run_mc(config)
    for rep in range(2):
        data, mu = replication_dataset(config, rep)
        assert report.records[rep].tss == pytest.approx(tss(data, mu), rel=1e-12)


@pytest.mark.parametrize("max_workers", [1, 3])
def test_run_mc_fail_fast_and_skip(monkeypatch, max_workers):
    real = sim._run_rep
    started = []

    def exploding(rep, *args, **kwargs):
        started.append(rep)
        if rep == 1:
            raise ValueError("synthetic failure")
        return real(rep, *args, **kwargs)

    monkeypatch.setattr(sim, "_run_rep", exploding)
    config = SimConfig(n=30, reps=3, seed=12, run_test=False, refine_rounds=0)
    with pytest.raises(RuntimeError, match="replication 1"):
        run_mc(config, max_workers=max_workers)
    if max_workers == 1:
        assert started == [0, 1]
    lenient = SimConfig(n=30, reps=3, seed=12, run_test=False, refine_rounds=0, skip_failures=True)
    report = run_mc(lenient, max_workers=max_workers)
    assert len(report.records) == 2
    assert report.skipped[0][0] == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=1)
    with pytest.raises(ValueError):
        SimConfig(snr=0.0)
    with pytest.raises(ValueError):
        SimConfig(reps=0)
    with pytest.raises(ValueError):
        SimConfig(eigen_sign="negative")
    with pytest.raises(ValueError):
        SimConfig(omega=-1.0)


def test_true_multipliers_signs():
    minus = true_multipliers(2.0, p=3, eigen_sign="minus")
    plus = true_multipliers(2.0, p=3, eigen_sign="plus")
    lap = (np.arange(1, 4) * np.pi) ** 2
    np.testing.assert_allclose(minus, lap - 4.0)
    np.testing.assert_allclose(plus, lap + 4.0)


def test_keep_bootstrap_dumps():
    config = SimConfig(n=30, reps=2, seed=13, B=100, keep_bootstrap=1, refine_rounds=0)
    report = run_mc(config)
    assert len(report.bootstrap_dumps) == 1
    rep, values = report.bootstrap_dumps[0]
    assert rep == 0
    assert values.shape == (100,)
