"""Monte Carlo harness for the Helmholtz-operator simulation design.

Data are generated on the unit interval from
U_i = sum_k k^{-3} Z_ik phi_k with Z_ik uniform on (-sqrt 3, sqrt 3), and
F_i = D(U_i) + sigma * eps_i with eps_ik standard normal.  The true
operator D = -laplacian - omega^2 is diagonal on the cosine basis; the
noise scale sigma is calibrated so that the signal-to-noise ratio
[E||D(U)||^2 / E||eps||^2]^{1/2} equals the requested value.

The operator definition gives the eigenvalues mu_k = (k pi)^2 - omega^2;
``eigen_sign="plus"`` switches to the reading mu_k = (k pi)^2 + omega^2,
which is the convention reproduced by the reference tables.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem, DataSet, make_cosine_basis
from .gof import GofResult, ParamFamily, bootstrap_test, fit_parametric
from .kernels import (
    KernelMatrices,
    KernelSpec,
    assemble,
    identity_op,
    neg_laplacian,
)
from .regress import RidgeSystem, lambda_path

DEFAULT_LAMBDA_GRID = (1e0, 1e1, 1e2, 1e3, 1e4, 1e5)


@dataclass(frozen=True)
class SimConfig:
    """Settings for one Monte Carlo study cell."""

    n: int = 200
    p: int = 10
    omega: float = 0.0
    snr: float = 3.0
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    B: int = 200
    reps: int = 1
    seed: int = 0
    strategy: str = "mixed"
    alpha: float = 0.05
    eigen_sign: str = "minus"
    h: float = 0.01
    n_quad: int = 201
    test_lambda: str | float = "ess_min"
    run_test: bool = True
    refine_rounds: int = 2
    skip_failures: bool = False
    keep_bootstrap: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.snr <= 0:
            raise ValueError(f"snr must be positive, got {self.snr}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.eigen_sign not in ("minus", "plus"):
            raise ValueError(f"eigen_sign must be 'minus' or 'plus', got {self.eigen_sign!r}")
        if not self.lambda_grid:
            raise ValueError("lambda_grid must be nonempty")


def true_multipliers(omega: float, p: int = 10, eigen_sign: str = "minus") -> np.ndarray:
    """Eigenvalues of the true operator on the cosine basis."""
    lap = (np.arange(1, p + 1) * np.pi) ** 2
    return lap + omega**2 if eigen_sign == "plus" else lap - omega**2


def calibrate_sigma(omega: float, snr: float, p: int = 10, eigen_sign: str = "minus") -> float:
    """Noise scale matching the target signal-to-noise ratio.

    With unit-variance scores, E||D(U)||^2 = sum_k k^{-6} mu_k^2 and
    E||eps||^2 = p sigma^2, so sigma = sqrt(sum_k k^{-6} mu_k^2 / (p snr^2)).
    """
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    ks = np.arange(1, p + 1)
    mu = true_multipliers(omega, p, eigen_sign)
    return float(np.sqrt(np.sum(ks**-6.0 * mu**2) / (p * snr**2)))


def gen_dataset(
    config: SimConfig, rng: np.random.Generator, basis: BasisSystem | None = None
) -> tuple[DataSet, np.ndarray]:
    """Draw one (U, F) sample; returns the dataset and the true eigenvalues."""
    if basis is None:
        basis = make_cosine_basis(config.p, config.n_quad)
    ks = np.arange(1, config.p + 1)
    mu = true_multipliers(config.omega, config.p, config.eigen_sign)
    sigma = calibrate_sigma(config.omega, config.snr, config.p, config.eigen_sign)
    Z = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(config.n, config.p))
    U = Z * ks**-3.0
    F = U * mu + sigma * rng.standard_normal((config.n, config.p))
    return DataSet(U=U, F=F, basis=basis), mu


def ess(fitted: np.ndarray, data: DataSet, true_multipliers: np.ndarray) -> float:
    """Error sum of squares sum_i ||(D_hat - D)(U_i)||^2.

    ``fitted`` is the (n, p) matrix of fitted response coefficients
    D_hat(U_i) for the predictors of ``data``.
    """
    return float(np.sum((fitted - data.U * true_multipliers) ** 2))


def tss(data: DataSet, true_multipliers: np.ndarray) -> float:
    """Total sum of squares sum_i ||D(U_i)||^2 of the true signal."""
    return float(np.sum((data.U * true_multipliers) ** 2))


@dataclass(frozen=True)
class RepRecord:
    """Per-replication results; lambda-indexed arrays follow the grid order."""

    rep: int
    ess_lambda: np.ndarray
    rss_lambda: np.ndarray
    gcv_lambda: np.ndarray
    trace_lambda: np.ndarray
    gcv_best_lambda: float
    ess_min_lambda: float
    ess_min_value: float
    theta_hat: float
    ess_theta: float
    tss: float
    test_lambda: float | None
    q_n: float | None
    p_value: float | None
    reject: bool | None


@dataclass(frozen=True, eq=False)
class McReport:
    """All replication records plus the settings that produced them."""

    config: SimConfig
    lambda_grid: tuple
    records: tuple[RepRecord, ...]
    skipped: tuple = ()
    bootstrap_dumps: tuple = field(default=(), repr=False)

    def summary(self) -> dict:
        """Aggregate means with standard errors, recomputed from records."""

        def mean_se(values):
            arr = np.asarray(values, dtype=float)
            se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
            # table convention: mean with the sd of the mean in parentheses
            return {"mean": float(arr.mean()), "se": se, "display": f"{arr.mean():.4g} ({se:.2g})"}

        recs = self.records
        out = {
            "n": self.config.n,
            "snr": self.config.snr,
            "omega": self.config.omega,
            "eigen_sign": self.config.eigen_sign,
            "reps": len(recs),
            "skipped": len(self.skipped),
            "per_lambda": {},
            "ess_theta": mean_se([r.ess_theta for r in recs]),
            "theta_hat": mean_se([r.theta_hat for r in recs]),
            "tss": mean_se([r.tss for r in recs]),
            "ess_min": mean_se([r.ess_min_value for r in recs]),
        }
        for idx, lam in enumerate(self.lambda_grid):
            out["per_lambda"][f"{lam:g}"] = {
                "ess": mean_se([r.ess_lambda[idx] for r in recs]),
                "gcv": mean_se([r.gcv_lambda[idx] for r in recs]),
                "rss": mean_se([r.rss_lambda[idx] for r in recs]),
                "trace": mean_se([r.trace_lambda[idx] for r in recs]),
            }
        best = [r.gcv_best_lambda for r in recs]
        out["gcv_best_lambda_mode"] = float(max(set(best), key=best.count))
        if any(r.p_value is not None for r in recs):
            tested = [r for r in recs if r.p_value is not None]
            out["rejection_rate"] = float(np.mean([r.reject for r in tested]))
            out["q_n"] = mean_se([r.q_n for r in tested])
        return out


def _refine_ess_lambda(system, data, mu, grid, ess_grid, rounds):
    """Log-space refinement of the ESS-minimizing lambda around the grid min."""
    lams = list(map(float, grid))
    vals = list(map(float, ess_grid))
    for _ in range(rounds):
        i = int(np.argmin(vals))
        lo = lams[i - 1] if i > 0 else lams[i] / 10
        hi = lams[i + 1] if i < len(lams) - 1 else lams[i] * 10
        candidates = np.exp(np.linspace(np.log(lo), np.log(hi), 7))[1:-1]
        for lam in candidates:
            if any(abs(np.log(lam / l)) < 1e-12 for l in lams):
                continue
            v = ess(system.fitted(system.solve(lam)), data, mu)
            j = int(np.searchsorted(lams, lam))
            lams.insert(j, float(lam))
            vals.insert(j, v)
    i = int(np.argmin(vals))
    return lams[i], vals[i]


def _run_rep(
    rep: int,
    config: SimConfig,
    basis: BasisSystem,
    km: KernelMatrices,
    family: ParamFamily,
    data_seed: np.random.SeedSequence,
    boot_seed: int,
) -> tuple[RepRecord, GofResult | None]:
    data, mu = gen_dataset(config, np.random.default_rng(data_seed), basis)
    system = RidgeSystem(data, km)
    grid = tuple(float(l) for l in config.lambda_grid)

    rows, ess_l = [], []
    for row, fitted in lambda_path(system, grid):
        rows.append(row)
        ess_l.append(ess(fitted, data, mu))
    gcv_l = [row.gcv for row in rows]

    gcv_best = grid[int(np.argmin(gcv_l))]
    ess_min_lam, ess_min_val = _refine_ess_lambda(
        system, data, mu, grid, ess_l, config.refine_rounds
    )

    theta = fit_parametric(data, family)
    ess_theta = ess(family.apply(data.U, theta.theta), data, mu)
    tss_val = tss(data, mu)

    gof = None
    test_lambda = q_n = p_value = reject = None
    if config.run_test:
        if config.test_lambda == "ess_min":
            test_lambda = ess_min_lam
        elif config.test_lambda == "gcv_min":
            test_lambda = gcv_best
        else:
            test_lambda = float(config.test_lambda)
        gof = bootstrap_test(
            data,
            km,
            test_lambda,
            family,
            B=config.B,
            strategy=config.strategy,
            seed=boot_seed,
            system=system,
        )
        q_n, p_value = gof.q_n, gof.p_value
        reject = bool(p_value < config.alpha)

    record = RepRecord(
        rep=rep,
        ess_lambda=np.array(ess_l),
        rss_lambda=np.array([row.rss for row in rows]),
        gcv_lambda=np.array(gcv_l),
        trace_lambda=np.array([row.trace for row in rows]),
        gcv_best_lambda=gcv_best,
        ess_min_lambda=ess_min_lam,
        ess_min_value=ess_min_val,
        theta_hat=theta.theta,
        ess_theta=ess_theta,
        tss=tss_val,
        test_lambda=test_lambda,
        q_n=q_n,
        p_value=p_value,
        reject=reject,
    )
    return record, gof


def _rep_streams(seed: int, rep: int) -> tuple[np.random.SeedSequence, int]:
    """Data stream and bootstrap seed for one replication of a study.

    The replication's stream is child ``rep`` of ``SeedSequence(seed)``, so
    it does not depend on how many replications the study runs.
    """
    stream = np.random.SeedSequence(seed, spawn_key=(rep,))
    data_seed, boot_stream = stream.spawn(2)
    return data_seed, int(boot_stream.generate_state(1)[0])


def replication_dataset(
    config: SimConfig, rep: int = 0, basis: BasisSystem | None = None
) -> tuple[DataSet, np.ndarray]:
    """The dataset drawn by replication ``rep`` of ``run_mc(config)``."""
    data_seed, _ = _rep_streams(config.seed, rep)
    return gen_dataset(config, np.random.default_rng(data_seed), basis)


def run_mc(config: SimConfig, max_workers: int = 1, progress: bool = False) -> McReport:
    """Run the Monte Carlo study; deterministic for a given config.

    Replications use independent RNG streams spawned from ``config.seed``
    and results are merged by replication index, so the report does not
    depend on ``max_workers``.  A failing replication aborts the study
    with its index, and cancels the replications not yet started, unless
    ``config.skip_failures`` is set, in which case it is recorded in
    ``report.skipped``.
    """
    basis = make_cosine_basis(config.p, config.n_quad)
    km = assemble(
        basis,
        P=neg_laplacian(),
        B=identity_op(),
        L=neg_laplacian(),
        spec=KernelSpec(h=config.h),
    )
    family = ParamFamily.scaled_neg_laplacian(basis)

    def job(rep: int):
        try:
            return _run_rep(rep, config, basis, km, family, *_rep_streams(config.seed, rep))
        except Exception as exc:
            return exc

    results, skipped = [], []
    with ThreadPoolExecutor(max_workers=max(max_workers, 1)) as pool:
        # one worker runs in the calling thread, so replications run in order
        # and a failure stops the study before the next one starts
        reps = range(config.reps)
        outcomes = pool.map(job, reps) if max_workers > 1 else map(job, reps)
        for rep, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                if not config.skip_failures:
                    pool.shutdown(cancel_futures=True)
                    raise RuntimeError(f"replication {rep} failed: {outcome}") from outcome
                skipped.append((rep, str(outcome)))
            else:
                results.append(outcome)
            if progress:
                print(f"\rreplication {rep + 1}/{config.reps}", end="", file=sys.stderr)
    if progress:
        print(file=sys.stderr)

    return McReport(
        config=config,
        lambda_grid=tuple(float(l) for l in config.lambda_grid),
        records=tuple(rec for rec, _ in results),
        skipped=tuple(skipped),
        bootstrap_dumps=tuple(
            (rec.rep, gof.bootstrap_values)
            for rec, gof in results
            if gof is not None and rec.rep < config.keep_bootstrap
        ),
    )
