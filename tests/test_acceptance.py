"""Acceptance suite: every shipped criterion at its pinned tolerance.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line with the measured
numbers (run pytest with -s to see them on success).  Monte Carlo
criteria use a fixed seed and eigen_sign="plus", the eigenvalue reading
that reproduces the reference tables; this choice is recorded in the
printed lines.
"""

import time

import numpy as np
import pytest

from diffreg import (
    DataSet,
    KernelSpec,
    SimConfig,
    assemble,
    fit,
    gen_dataset,
    identity_op,
    make_cosine_basis,
    neg_laplacian,
    run_mc,
    tss,
    wild_multipliers,
)
from diffreg.gof import GOLDEN_MINUS, GOLDEN_PLUS
from diffreg.regress import RidgeSystem

from conftest import design_by_loops

ACC_SEED = 20240501
EIGEN_SIGN = "plus"  # reproduces the reference tables; recorded per criterion


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def table1_report():
    config = SimConfig(
        n=200,
        snr=3.0,
        omega=0.0,
        reps=100,
        seed=ACC_SEED,
        eigen_sign=EIGEN_SIGN,
        run_test=False,
        refine_rounds=0,
    )
    start = time.time()
    report = run_mc(config)
    return report, time.time() - start


def test_criterion_1_table1_analogue(table1_report):
    report, elapsed = table1_report
    summary = report.summary()
    ess_1e3 = summary["per_lambda"]["1000"]["ess"]["mean"]
    gcv_1e3 = summary["per_lambda"]["1000"]["gcv"]["mean"]
    ess_1e5 = summary["per_lambda"]["100000"]["ess"]["mean"]
    ok = (
        148.0 <= ess_1e3 <= 178.0
        and 17.2 <= gcv_1e3 <= 18.1
        and ess_1e5 >= 10.0 * ess_1e3
        and elapsed < 600.0
    )
    _report(
        1,
        ok,
        f"mean ESS(1e3)={ess_1e3:.1f} in [148,178], mean GCV(1e3)={gcv_1e3:.3f} in "
        f"[17.2,18.1], ESS(1e5)/ESS(1e3)={ess_1e5 / ess_1e3:.1f} >= 10, "
        f"runtime {elapsed:.0f}s < 600s (eigen_sign={EIGEN_SIGN})",
    )
    assert ok


def test_criterion_2_table2_spot_checks():
    cell_a = run_mc(
        SimConfig(
            n=200, snr=3.0, omega=0.0, reps=100, seed=ACC_SEED + 1,
            eigen_sign=EIGEN_SIGN, run_test=False, refine_rounds=2,
        )
    ).summary()
    cell_b = run_mc(
        SimConfig(
            n=200, snr=8.0, omega=1.0, reps=100, seed=ACC_SEED + 2,
            eigen_sign=EIGEN_SIGN, run_test=False, refine_rounds=2,
        )
    ).summary()
    ess_theta_a = cell_a["ess_theta"]["mean"]
    ess_theta_b = cell_b["ess_theta"]["mean"]
    ess_lam_b = cell_b["ess_min"]["mean"]
    ok = 0.8 <= ess_theta_a <= 2.6 and 45.0 <= ess_theta_b <= 60.0 and 22.0 <= ess_lam_b <= 32.0
    _report(
        2,
        ok,
        f"ESS_theta(snr=3,w=0)={ess_theta_a:.2f} in [0.8,2.6]; "
        f"ESS_theta(snr=8,w=1)={ess_theta_b:.1f} in [45,60]; "
        f"ESS_lambda*(snr=8,w=1)={ess_lam_b:.1f} in [22,32] (eigen_sign={EIGEN_SIGN})",
    )
    assert ok


def test_criterion_3_test_size_and_power():
    rates = {}
    for omega in (0.0, 1.26, 1.68):
        report = run_mc(
            SimConfig(
                n=200, snr=3.0, omega=omega, reps=100, B=200, seed=ACC_SEED + 3,
                strategy="mixed", eigen_sign=EIGEN_SIGN, test_lambda="ess_min",
                refine_rounds=1,
            )
        )
        rates[omega] = report.summary()["rejection_rate"]
    ok = 0.02 <= rates[0.0] <= 0.09 and rates[1.26] >= 0.90 and rates[1.68] >= 0.99
    _report(
        3,
        ok,
        f"rejection at w=0: {100 * rates[0.0]:.1f}% in [2,9]; "
        f"w=1.26: {100 * rates[1.26]:.1f}% >= 90; w=1.68: {100 * rates[1.68]:.1f}% >= 99 "
        f"(mixed, B=200, eigen_sign={EIGEN_SIGN})",
    )
    assert ok


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(ACC_SEED + 4)
    kms = {
        p: assemble(
            make_cosine_basis(p, 101), neg_laplacian(), identity_op(), neg_laplacian(),
            KernelSpec(h=0.2),
        )
        for p in (2, 3)
    }
    bases = {p: make_cosine_basis(p, 101) for p in (2, 3)}
    lambdas = (0.1, 1.0, 10.0)
    worst_grad, worst_match = 0.0, 0.0
    for case in range(50):
        p = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        lam = lambdas[case % 3]
        U = rng.uniform(-1, 1, (n, p))
        F = rng.uniform(-1, 1, (n, p))
        data = DataSet(U=U, F=F, basis=bases[p])
        km = kms[p]
        result = fit(data, km, lam)
        A = design_by_loops(U, km.K_L)
        y = F.flatten(order="F")
        K_sym = (km.K + km.K.T) / 2

        def objective(c):
            resid = y - A @ c
            return float(resid @ resid + n * lam * c @ (K_sym @ c))

        # objective scale: its value at the zero operator, ||vec(F)||^2;
        # the value at c_hat collapses to 0 on interpolating instances
        scale = float(y @ y)
        grad = np.zeros(p * p)
        for i in range(p * p):
            delta = np.zeros(p * p)
            delta[i] = 1e-6 * max(1.0, abs(result.c_hat[i]))
            grad[i] = (objective(result.c_hat + delta) - objective(result.c_hat - delta)) / (
                2 * delta[i]
            )
        worst_grad = max(worst_grad, np.max(np.abs(grad)) / scale)

        oracle = np.linalg.solve(A.T @ A + n * lam * km.K_eps, A.T @ y)
        worst_match = max(
            worst_match, np.max(np.abs(result.c_hat - oracle)) / np.max(np.abs(oracle))
        )
    ok = worst_grad < 1e-6 and worst_match < 1e-8
    _report(
        4,
        ok,
        f"50 instances: max |grad|/objective = {worst_grad:.2e} < 1e-6, "
        f"max relative oracle gap = {worst_match:.2e} < 1e-8",
    )
    assert ok


def test_criterion_5_smoothing_matrix_properties():
    rng = np.random.default_rng(ACC_SEED + 5)
    basis = make_cosine_basis(3, 101)
    km = assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.2))
    grid = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5]
    worst_sym, worst_eig_lo, worst_eig_hi, worst_consistency = 0.0, 0.0, 0.0, 0.0
    monotone = True
    for _ in range(20):
        n = int(rng.integers(8, 15))
        U = rng.uniform(-1, 1, (n, 3)) * np.arange(1, 4) ** -2.0
        F = U * (np.arange(1, 4) * np.pi) ** 2 + 0.3 * rng.standard_normal((n, 3))
        data = DataSet(U=U, F=F, basis=basis)
        system = RidgeSystem(data, km)
        traces = []
        for lam in grid:
            dense = system.smoother(lam)
            worst_sym = max(
                worst_sym, np.max(np.abs(dense - dense.T)) / max(np.max(np.abs(dense)), 1e-300)
            )
            eigs = np.linalg.eigvalsh((dense + dense.T) / 2)
            worst_eig_lo = min(worst_eig_lo, float(eigs.min()))
            worst_eig_hi = max(worst_eig_hi, float(eigs.max()))
            fitted = system.fitted(system.solve(lam))
            smoothed = system.smooth(lam, F.flatten(order="F"))
            gap = np.linalg.norm(fitted.flatten(order="F") - smoothed)
            worst_consistency = max(worst_consistency, gap)
            traces.append(system.trace(lam))
        monotone = monotone and all(a > b for a, b in zip(traces, traces[1:]))
    ok = (
        worst_sym < 1e-10
        and worst_eig_lo >= -1e-10
        and worst_eig_hi <= 1 + 1e-10
        and monotone
        and worst_consistency < 1e-9
    )
    _report(
        5,
        ok,
        f"20 instances x 6 lambdas: max asymmetry {worst_sym:.2e} < 1e-10, eigenvalues in "
        f"[{worst_eig_lo:.2e}, {worst_eig_hi:.10f}] within [-1e-10, 1+1e-10], traces strictly "
        f"decreasing: {monotone}, max smoother-vs-fit gap {worst_consistency:.2e} < 1e-9",
    )
    assert ok


def test_criterion_6_wild_multiplier_moments():
    rng = np.random.default_rng(ACC_SEED + 6)
    draws = wild_multipliers(1_000_000, rng)
    m1 = float(draws.mean())
    m2 = float(np.mean(draws**2))
    m3 = float(np.mean(draws**3))
    support_ok = set(np.unique(draws)) == {GOLDEN_MINUS, GOLDEN_PLUS}
    ok = abs(m1) < 0.005 and abs(m2 - 1) < 0.01 and abs(m3 - 1) < 0.02 and support_ok
    _report(
        6,
        ok,
        f"1e6 draws: |mean|={abs(m1):.4f} < 0.005, |m2-1|={abs(m2 - 1):.4f} < 0.01, "
        f"|m3-1|={abs(m3 - 1):.4f} < 0.02, two-point support: {support_ok}",
    )
    assert ok


def test_criterion_7_quadrature_and_gram_sanity():
    basis = make_cosine_basis(10, 201)
    gram_dev = float(np.max(np.abs(basis.gram() - np.eye(10))))
    spec = KernelSpec(h=0.01)
    km = assemble(basis, neg_laplacian(), identity_op(), identity_op(), spec)
    K, K_L_id = km.K, km.K_L
    sym_dev = float(np.max(np.abs(K - K.T)))
    K_j = km.K_eps
    chol_ok = True
    try:
        np.linalg.cholesky(K_j)
    except np.linalg.LinAlgError:
        chol_ok = False
    eigs = np.linalg.eigvalsh((K + K.T) / 2)
    psd_ok = eigs.min() >= -1e-8 * eigs.max()
    id_dev = float(np.max(np.abs(K_L_id - K))) / float(np.max(np.abs(K)))
    ok = gram_dev < 1e-10 and sym_dev == 0.0 and chol_ok and psd_ok and id_dev < 1e-12
    _report(
        7,
        ok,
        f"Gram deviation {gram_dev:.2e} < 1e-10; K exactly symmetric: {sym_dev == 0.0}; "
        f"Cholesky after jitter: {chol_ok}; min eig {eigs.min():.2e} >= -1e-8*max; "
        f"K_L(identity) vs K relative gap {id_dev:.2e} < 1e-12",
    )
    assert ok


def test_criterion_8_noiseless_recovery():
    config = SimConfig(
        n=200, snr=np.inf, omega=0.0, seed=ACC_SEED + 8, eigen_sign=EIGEN_SIGN, run_test=False
    )
    basis = make_cosine_basis(config.p, config.n_quad)
    km = assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=config.h))
    data, mu = gen_dataset(config, np.random.default_rng(ACC_SEED + 8), basis)
    system = RidgeSystem(data, km)
    fitted = system.fitted(system.solve(1e-6))
    ratio = float(np.sum((fitted - data.U * mu) ** 2)) / tss(data, mu)
    ok = ratio < 1e-4
    _report(8, ok, f"sigma=0, lambda=1e-6: ESS/TSS = {ratio:.2e} < 1e-4")
    assert ok
