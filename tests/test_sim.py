"""Tests for data generation, calibration, ESS/TSS, and the MC harness."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import diffreg.gof as gof
import diffreg.sim as sim
from diffreg import (
    KernelSpec,
    RidgeSystem,
    SimConfig,
    assemble,
    calibrate_sigma,
    ess,
    gcv_sweep,
    gen_dataset,
    identity_op,
    make_cosine_basis,
    mc_kernels,
    neg_laplacian,
    replication_dataset,
    run_mc,
    run_mc_cells,
    true_multipliers,
    tss,
)
from diffreg.regress import lambda_path


def records(report):
    """One namespace per replication of ``report``, holding that row of every column."""
    cols = report.columns
    return [
        SimpleNamespace(**{name: None if col is None else col[i] for name, col in cols.items()})
        for i in range(len(cols["rep"]))
    ]


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
    ratio = report_a.columns["ess_theta"][0] / report_b.columns["ess_theta"][0]
    assert ratio == pytest.approx((sigma_a / sigma_b) ** 2, rel=1e-10)


def test_run_mc_deterministic():
    config = SimConfig(n=40, reps=3, seed=8, B=100, refine_rounds=1)
    r1 = run_mc(config)
    r2 = run_mc(config)
    for a, b in zip(records(r1), records(r2), strict=True):
        np.testing.assert_array_equal(a.ess_lambda, b.ess_lambda)
        assert a.p_value == b.p_value
        assert a.theta_hat == b.theta_hat


def test_run_mc_single_rep_aggregation_identity():
    config = SimConfig(n=40, reps=1, seed=10, B=100)
    report = run_mc(config)
    summary = report.summary()
    rec = records(report)[0]
    assert summary["ess_theta"]["mean"] == pytest.approx(rec.ess_theta)
    assert summary["ess_theta"]["se"] == 0.0
    assert summary["per_lambda"]["1000"]["ess"]["mean"] == pytest.approx(rec.ess_lambda[3])


def test_run_mc_records_match_replication_dataset():
    config = SimConfig(n=30, reps=2, seed=11, run_test=False, refine_rounds=0)
    report = run_mc(config)
    for rep in range(2):
        data, mu = replication_dataset(config, rep)
        assert report.columns["tss"][rep] == pytest.approx(tss(data, mu), rel=1e-12)


def test_run_mc_factors_the_kernel_once(monkeypatch):
    real = np.linalg.eigh
    shapes = []

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    run_mc(SimConfig(n=30, p=4, reps=3, B=100, seed=1))
    # C, M and the M side of the whitened Gram once per study, its C side once per replication
    assert shapes == [(4, 4)] * (3 + 3)


def test_run_mc_reuses_given_kernels(monkeypatch):
    config = SimConfig(n=30, p=4, reps=2, B=100, seed=2, refine_rounds=0)
    kernels = mc_kernels(config)
    want = run_mc(config)
    monkeypatch.setattr(sim, "assemble", None)  # a rebuild would fail
    got = run_mc(config, kernels=kernels)
    for a, b in zip(records(want), records(got), strict=True):
        np.testing.assert_array_equal(a.ess_lambda, b.ess_lambda)
        assert a.p_value == b.p_value
    # another omega cell shares the kernels
    assert run_mc(replace(config, omega=1.5), kernels=kernels).columns["rep"].size


@pytest.mark.parametrize("change", [{"p": 5}, {"n_quad": 101}, {"h": 0.02}])
def test_run_mc_rejects_kernels_of_other_settings(change):
    config = SimConfig(n=30, p=4, reps=1, B=100)
    with pytest.raises(ValueError, match="another p, n_quad or h"):
        run_mc(config, kernels=mc_kernels(replace(config, **change)))


def test_run_mc_solves_once_per_round(monkeypatch):
    real = RidgeSystem.solve
    lams = []

    def counting(self, lam):
        lams.append(lam)
        return real(self, lam)

    monkeypatch.setattr(RidgeSystem, "solve", counting)
    config = SimConfig(n=30, p=4, reps=3, B=100, seed=1)
    run_mc(config)
    # the grid, one call per refinement round, and the bootstrap's fit
    assert len(lams) <= (2 + config.refine_rounds) * config.reps
    assert sum(np.size(lam) for lam in lams) > len(lams)


def reference_refine(ess_at, grid, rounds):
    """The ESS refinement as one evaluation ``ess_at(lam)`` per candidate, kept as the reference."""
    lams = list(grid)
    vals = [ess_at(lam) for lam in lams]
    for _ in range(rounds):
        i = int(np.argmin(vals))
        lo = lams[i - 1] if i > 0 else lams[i] / 10
        hi = lams[i + 1] if i < len(lams) - 1 else lams[i] * 10
        for lam in np.exp(np.linspace(np.log(lo), np.log(hi), 7))[1:-1]:
            if any(abs(np.log(lam / old)) < 1e-12 for old in lams):
                continue
            j = int(np.searchsorted(lams, lam))
            lams.insert(j, float(lam))
            vals.insert(j, ess_at(lam))
    i = int(np.argmin(vals))
    return lams[i], vals[i]


def system_ess(system, mu):
    """ESS of the fit of ``system`` at lambda, on the p x p route; broadcasts over lambdas."""
    return lambda lam: sim.operator_ess(system, system.operator_matrix(system.solve(lam)), mu)


@pytest.mark.parametrize("rounds", [0, 1, 3])
@pytest.mark.parametrize(
    "grid", [(1e0, 1e1, 1e2, 1e3, 1e4, 1e5), (1e-3, 1e-2), (1e4, 1e5), (30.0,), (5.0, 5.0, 5.0)]
)
def test_refine_matches_the_per_candidate_loop(grid, rounds):
    # each grid is ascending, as SimConfig hands it over; a config itself
    # rejects the repeated 5.0, so the grid goes to the refinement directly
    data, mu = replication_dataset(SimConfig(n=40, omega=0.84, eigen_sign="plus", seed=15))
    km = assemble(data.basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.01))
    ess_at = system_ess(RidgeSystem(data, km), mu)
    [lam], [value] = sim._refine_ess_lambda(ess_at, grid, ess_at(np.array(grid))[None], rounds)
    want_lam, want_value = reference_refine(lambda lam: float(ess_at(lam)), grid, rounds)
    assert lam == want_lam
    assert value == pytest.approx(want_value, rel=1e-12)


def synthetic_ess(lam, centre, width, bad):
    """A bowl in log lambda; NaN or inf (``bad``) on the decade (centre, centre + 1]."""
    x = math.log10(lam)  # per scalar, so an array of lambdas gives the same bits
    return bad if bad and centre < x <= centre + 1 else 1.0 + ((x - centre) / width) ** 2


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-4, 6), st.floats(0.05, 3), st.sampled_from([0.0, np.inf, np.nan])
        ),
        min_size=1,
        max_size=4,
    ),
    grid=st.lists(st.integers(-3, 5), min_size=1, max_size=6, unique=True).map(sorted),
    near=st.booleans(),
    rounds=st.integers(0, 4),
)
def test_masked_refinement_equals_the_per_candidate_loop(rows, grid, near, rounds):
    grid = [10.0**k for k in grid]
    if near and len(grid) > 1:
        # a point within 1e-12 in log of the first round's middle candidate
        # between the first two grid points, so that candidate is dropped
        grid.insert(1, np.sqrt(grid[0] * grid[1]) * (1 + 1e-13))
    rows = [(c, w, b if k == 0 else 0.0) for k, (c, w, b) in enumerate(rows)]

    def ess_of(lams):  # (C, k) lambdas, row c on the function of row c
        return np.array([[synthetic_ess(lam, *row) for lam in lam_row]
                         for lam_row, row in zip(lams, rows)])

    lams, vals = sim._refine_ess_lambda(
        ess_of, grid, ess_of(np.tile(grid, (len(rows), 1))), rounds
    )
    for c, row in enumerate(rows):
        want = reference_refine(lambda lam: synthetic_ess(lam, *row), grid, rounds)
        assert lams[c] == want[0]
        np.testing.assert_array_equal(vals[c], want[1])


def test_permuted_lambda_grid_gives_identical_records():
    base = dict(n=40, reps=3, seed=14, B=100, refine_rounds=2)
    ascending = run_mc(SimConfig(lambda_grid=(1e0, 1e1, 1e2, 1e3, 1e4, 1e5), **base))
    permuted = run_mc(SimConfig(lambda_grid=[1e3, 1e0, 1e5, 1e1, 1e4, 1e2], **base))
    assert permuted.config.lambda_grid == ascending.config.lambda_grid
    assert list(permuted.columns) == list(ascending.columns)
    for name, value in ascending.columns.items():
        np.testing.assert_array_equal(permuted.columns[name], value, err_msg=name)


def test_records_share_the_sweep_computation():
    config = SimConfig(n=40, seed=8, run_test=False, refine_rounds=0,
                       lambda_grid=[1e3, 1e0, 1e5, 1e1, 1e4, 1e2])
    record = records(run_mc(config))[0]
    data, _ = replication_dataset(config, 0)
    km = assemble(
        data.basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=config.h)
    )
    sweep = gcv_sweep(data, km, config.lambda_grid)
    np.testing.assert_array_equal(record.rss_lambda, sweep.rss)
    np.testing.assert_array_equal(record.gcv_lambda, sweep.gcv)
    np.testing.assert_array_equal(record.trace_lambda, sweep.trace)
    assert record.gcv_best_lambda == sweep.best_lambda


def test_gcv_tie_resolves_to_the_smaller_lambda():
    # at lambda this large the fit is zero to the last bit, so both GCV values are equal
    config = SimConfig(n=40, seed=3, run_test=False, refine_rounds=0, lambda_grid=(1e301, 1e300))
    record = records(run_mc(config))[0]
    assert record.gcv_lambda[0] == record.gcv_lambda[1]
    assert record.gcv_best_lambda == 1e300


def fail_replications(monkeypatch, failing):
    """Make the replication step raise for each rep in ``failing``; returns the reps started."""
    real = sim._stack_rep
    started = []

    def step(configs, basis, km, family, data_seed):
        rep = data_seed.spawn_key[0]  # replication rep's data stream is child (rep, 0)
        started.append(rep)
        if rep in failing:
            raise ValueError(f"synthetic failure at {rep}")
        return real(configs, basis, km, family, data_seed)

    monkeypatch.setattr(sim, "_stack_rep", step)
    return started


def test_run_mc_fail_fast_and_skip(monkeypatch):
    started = fail_replications(monkeypatch, {1})
    config = SimConfig(n=30, reps=3, seed=12, run_test=False, refine_rounds=0)
    with pytest.raises(RuntimeError, match="replication 1"):
        run_mc(config)
    assert started == [0, 1]
    lenient = SimConfig(n=30, reps=3, seed=12, run_test=False, refine_rounds=0, skip_failures=True)
    report = run_mc(lenient)
    assert report.columns["rep"].tolist() == [0, 2]
    assert report.skipped[0][0] == 1


def test_gcv_mode_tie_goes_to_the_smallest_lambda():
    report = run_mc(SimConfig(n=30, p=4, reps=4, B=100, seed=3, run_test=False, refine_rounds=0))
    for best, mode in (
        ((1.0, 1000.0, 1000.0, 1.0), 1.0),  # a set of the two iterates 1000.0 first
        ((1e5, 1e2, 1e2, 1e5), 1e2),
        ((1e5, 1e0, 1e5, 1e2), 1e5),  # a strict majority still wins over a smaller lambda
    ):
        columns = {**report.columns, "gcv_best_lambda": np.array(best)}
        assert replace(report, columns=columns).summary()["gcv_best_lambda_mode"] == mode


def test_summary_means_and_errors_equal_the_one_dimensional_ones():
    report = run_mc(SimConfig(n=30, p=4, reps=5, B=100, seed=9, refine_rounds=1))
    summary = report.summary()
    for name, values in (
        ("ess_theta", [r.ess_theta for r in records(report)]),
        ("tss", [r.tss for r in records(report)]),
        ("q_n", [r.q_n for r in records(report)]),
    ):
        arr = np.asarray(values, dtype=float)
        se = float(arr.std(ddof=1) / np.sqrt(arr.size))
        assert summary[name] == {
            "mean": float(arr.mean()), "se": se, "display": f"{arr.mean():.4g} ({se:.2g})"
        }
    trace = np.array([r.trace_lambda[2] for r in records(report)])
    assert summary["per_lambda"]["100"]["trace"]["mean"] == float(trace.mean())


def test_run_mc_raises_when_every_replication_is_skipped():
    # n=2 at lambda 1e-300 fits the data exactly, so every GCV denominator is 0
    config = SimConfig(
        n=2, reps=2, run_test=False, lambda_grid=(1e-300,), refine_rounds=0, skip_failures=True
    )
    with pytest.raises(RuntimeError, match="all 2 replications were skipped") as info:
        run_mc(config)
    assert "replication 0 failed: GCV denominator degenerate" in str(info.value)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=1)
    with pytest.raises(ValueError):
        SimConfig(snr=0.0)
    with pytest.raises(ValueError):
        SimConfig(reps=0)
    with pytest.raises(ValueError):
        SimConfig(eigen_sign="negative")
    for omega in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="omega"):
            SimConfig(omega=omega)
    with pytest.raises(ValueError, match="snr"):
        SimConfig(snr=np.nan)
    with pytest.raises(ValueError, match="snr"):
        calibrate_sigma(0.0, np.nan)
    assert SimConfig(snr=np.inf).snr == np.inf  # the noiseless design
    for alpha in (0.0, 1.0, 2.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="alpha"):
            SimConfig(alpha=alpha)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimConfig(seed=-1)
    for grid in ((), (1.0, 0.0), (1.0, -1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            SimConfig(lambda_grid=grid)
    # a grid point whose %g label repeats would merge into its neighbour's summary key
    for grid in ((1.0, 1.0), (1.0, 1.0000001), (10.0, 1.0000001, 2.0, 1.0)):
        with pytest.raises(ValueError, match="distinct"):
            SimConfig(lambda_grid=grid)
    with pytest.raises(ValueError, match="B must be >= 100, got 50"):
        SimConfig(B=50)
    with pytest.raises(ValueError, match="n_quad must be >= 2p\\+1 = 21, got 20"):
        SimConfig(p=10, n_quad=20)
    for h in (1e300, 1e-300):
        with pytest.raises(ValueError, match="bandwidth h"):
            SimConfig(h=h)
    with pytest.raises(ValueError, match="strategy must be one of"):
        SimConfig(strategy="foo")
    for test_lambda in (-1.0, 0.0, float("nan"), float("inf"), "ess_mn", [1.0, 2.0]):
        with pytest.raises(ValueError, match="test_lambda"):
            SimConfig(test_lambda=test_lambda)
    assert SimConfig(test_lambda=1e3).test_lambda == 1e3
    assert SimConfig(test_lambda="gcv_min").test_lambda == "gcv_min"
    grid = SimConfig(lambda_grid=[10, 1, 100]).lambda_grid
    assert grid == (1.0, 10.0, 100.0) and all(type(lam) is float for lam in grid)


def test_config_rejects_negative_refine_rounds_and_keep_bootstrap():
    # range(-1) is empty, so a negative count would have run as 0 without a word
    for name in ("refine_rounds", "keep_bootstrap"):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1"):
            SimConfig(**{name: -1})
        assert getattr(SimConfig(**{name: 0}), name) == 0


def test_config_rejects_a_design_whose_responses_would_overflow():
    with pytest.raises(ValueError, match="p must be >= 1"):
        SimConfig(p=0)
    # omega^2 overflows the eigenvalues at 1e200 and their squares, in sigma, at 1e100
    for omega in (1e200, 1e100):
        with pytest.raises(ValueError, match="too large"):
            SimConfig(omega=omega)
        with pytest.raises(ValueError, match="too large"):
            SimConfig(omega=omega, snr=np.inf)
    # a vanishing snr overflows the noise scale at any omega
    with pytest.raises(ValueError, match="too large for snr=1e-300"):
        SimConfig(omega=0.0, snr=1e-300)
    for config in (SimConfig(n=5, omega=1e70), SimConfig(n=5, snr=1e-150)):
        data, _ = replication_dataset(config)
        assert np.isfinite(data.F).all()


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


OMEGAS = (0.0, 0.84, 1.68)


def study(**settings):
    base = dict(n=30, p=4, reps=3, B=100, seed=14, refine_rounds=0, keep_bootstrap=2)
    return [SimConfig(omega=omega, **{**base, **settings}) for omega in OMEGAS]


def assert_same_report(got, want):
    assert got.config == want.config
    assert got.skipped == want.skipped
    assert list(got.columns) == list(want.columns)
    for name, value in want.columns.items():
        np.testing.assert_array_equal(got.columns[name], value, err_msg=name)
    assert [rep for rep, _ in got.bootstrap_dumps] == [rep for rep, _ in want.bootstrap_dumps]
    for (_, a), (_, b) in zip(got.bootstrap_dumps, want.bootstrap_dumps):
        np.testing.assert_array_equal(a, b)


def test_a_study_draws_each_replications_bootstrap_block_once(monkeypatch):
    draw, test = gof.bootstrap_multipliers, sim.residual_test
    seeds, tested = [], []

    def counting(n, B, seed):
        seeds.append(seed)
        return draw(n, B, seed)

    def testing(system, lams, *args):
        tested.append(len(lams))
        return test(system, lams, *args)

    monkeypatch.setattr(gof, "bootstrap_multipliers", counting)
    monkeypatch.setattr(sim, "residual_test", testing)
    reports = run_mc_cells(study())
    assert seeds == [sim._rep_streams(14, rep)[1] for rep in range(3)]
    # one test call per replication, over all three cells
    assert tested == [3, 3, 3]
    assert all(len(report.columns["rep"]) == 3 for report in reports)
    # without a test there is no block to draw
    seeds.clear()
    tested.clear()
    run_mc_cells(study(run_test=False))
    assert seeds == tested == []


def test_each_cell_of_a_study_equals_run_mc_of_that_cell(monkeypatch):
    configs = study()
    basis, km = kernels = mc_kernels(configs[0])
    family = gof.ParamFamily.scaled_neg_laplacian(basis)
    for got, config in zip(run_mc_cells(configs, kernels=kernels), configs, strict=True):
        assert_same_report(got, run_mc(config))
        # each test drew the block of its replication's seed, as a test of its own would
        for rec in records(got):
            data, _ = replication_dataset(config, rec.rep, basis)
            seed = sim._rep_streams(config.seed, rec.rep)[1]
            alone = gof.bootstrap_test(data, km, rec.test_lambda, family, B=config.B, seed=seed)
            assert (alone.q_n, alone.p_value) == (rec.q_n, rec.p_value)
    # a failing replication is skipped in every cell, as in each cell alone
    fail_replications(monkeypatch, {1})
    configs = study(skip_failures=True)
    reports = run_mc_cells(configs)
    for got, config in zip(reports, configs, strict=True):
        assert_same_report(got, run_mc(config))
    assert [report.skipped for report in reports] == [((1, "synthetic failure at 1"),)] * 3
    assert [len(report.columns["rep"]) for report in reports] == [2, 2, 2]


def test_a_study_fails_fast_in_replication_order(monkeypatch):
    started = fail_replications(monkeypatch, {1, 2})
    message = "^omega=0: replication 1 failed: synthetic failure at 1$"
    with pytest.raises(RuntimeError, match=message):
        run_mc_cells(study(run_test=False))
    assert started == [0, 1]
    started.clear()
    with pytest.raises(RuntimeError, match="^replication 1 failed: synthetic failure at 1$"):
        run_mc(study(run_test=False)[1])
    assert started == [0, 1]

    # the test runs inside the same step: its failure is the replication's too
    def failing_test(*args):
        raise ValueError("synthetic test failure")

    monkeypatch.setattr(sim, "residual_test", failing_test)
    started.clear()
    with pytest.raises(RuntimeError, match="^omega=0: replication 0 failed: synthetic test"):
        run_mc_cells(study())
    assert started == [0]


def test_a_study_raises_for_its_first_cell_with_every_replication_skipped(monkeypatch):
    started = fail_replications(monkeypatch, {0, 1, 2})
    with pytest.raises(RuntimeError, match="^omega=0: all 3 replications were skipped; "
                       "replication 0 failed: synthetic failure at 0$"):
        run_mc_cells(study(skip_failures=True, run_test=False))
    assert started == [0, 1, 2]


def test_a_study_takes_cells_that_differ_in_omega_only():
    configs = study()
    with pytest.raises(ValueError, match="at least one cell"):
        run_mc_cells([])
    for change in ({"seed": 15}, {"n": 31, "B": 200}, {"lambda_grid": (1.0, 10.0)}):
        with pytest.raises(ValueError, match="differ in omega only, not in " + ", ".join(change)):
            run_mc_cells([configs[0], replace(configs[1], **change)])
    with pytest.raises(ValueError, match="another p, n_quad or h"):
        run_mc_cells(configs, kernels=mc_kernels(replace(configs[0], h=0.02)))


def test_a_shared_failure_skips_every_cell_with_the_message_of_the_cell_alone():
    # n=2 at lambda 1e-300 fits the data exactly, so the shared trace fails GCV in every cell
    configs = [
        SimConfig(n=2, reps=2, omega=omega, run_test=False, lambda_grid=(1e-300,),
                  refine_rounds=0, skip_failures=True)
        for omega in (0.0, 0.84)
    ]
    alone = {}
    for config in configs:
        with pytest.raises(RuntimeError, match="GCV denominator degenerate") as info:
            run_mc(config)
        alone[config.omega] = str(info.value)
    # the error names the first cell whose replications were all skipped, so each
    # order of the cells shows what one of them recorded
    for cells in (configs, configs[::-1]):
        with pytest.raises(RuntimeError) as info:
            run_mc_cells(cells)
        assert str(info.value) == f"omega={cells[0].omega:g}: {alone[cells[0].omega]}"


@pytest.mark.parametrize("settings", [
    {"refine_rounds": 0},
    {"refine_rounds": 3, "test_lambda": "gcv_min", "strategy": "parametric"},
    {"refine_rounds": 2, "test_lambda": 30.0, "strategy": "nonparametric"},
    {"refine_rounds": 3, "run_test": False},
    {"refine_rounds": 3},  # the cells' ESS minima, so their test lambdas, differ
])
def test_each_record_equals_the_public_per_cell_functions(settings):
    configs = study(**settings)
    basis, km = kernels = mc_kernels(configs[0])
    family = gof.ParamFamily.scaled_neg_laplacian(basis)
    for report, config in zip(run_mc_cells(configs, kernels=kernels), configs, strict=True):
        assert report.columns["rep"].tolist() == list(range(config.reps))
        for rec in records(report):
            data, mu = replication_dataset(config, rec.rep, basis)
            system = RidgeSystem(data, km)
            path, operators = lambda_path(system, config.lambda_grid)
            np.testing.assert_array_equal(rec.ess_lambda, sim.operator_ess(system, operators, mu))
            np.testing.assert_array_equal(rec.rss_lambda, path.rss)
            np.testing.assert_array_equal(rec.gcv_lambda, path.gcv)
            np.testing.assert_array_equal(rec.trace_lambda, path.trace)
            assert rec.gcv_best_lambda == path.best_lambda
            ess_at = system_ess(system, mu)
            lam, value = reference_refine(
                lambda lam: float(ess_at(lam)), config.lambda_grid, config.refine_rounds
            )
            assert (rec.ess_min_lambda, rec.ess_min_value) == (lam, value)
            theta = gof.fit_parametric(data, family)
            assert rec.theta_hat == theta.theta
            assert rec.ess_theta == ess(family.apply(data.U, theta.theta), data, mu)
            assert rec.tss == tss(data, mu)
            if not config.run_test:
                assert rec.test_lambda is rec.q_n is rec.p_value is rec.reject is None
                continue
            want_lambda = {"ess_min": lam, "gcv_min": path.best_lambda}
            assert rec.test_lambda == want_lambda.get(config.test_lambda, config.test_lambda)
            seed = sim._rep_streams(config.seed, rec.rep)[1]
            want = gof.bootstrap_test(
                data, km, rec.test_lambda, family, B=config.B, strategy=config.strategy, seed=seed
            )
            assert (rec.q_n, rec.p_value, rec.reject) == (
                want.q_n, want.p_value, want.p_value < config.alpha
            )
            kept = dict(report.bootstrap_dumps)
            if rec.rep < config.keep_bootstrap:
                np.testing.assert_array_equal(kept[rec.rep], want.bootstrap_values)
        assert len(report.bootstrap_dumps) == (config.keep_bootstrap if config.run_test else 0)
