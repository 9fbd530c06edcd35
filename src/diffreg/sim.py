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
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem, DataSet, make_cosine_basis
from .gof import STRATEGIES, GofResult, ParamFamily, bootstrap_test, fit_parametric
from .kernels import DEFAULT_OPERATORS, KernelMatrices, KernelSpec, assemble, kernel_provenance
from .regress import RidgeSystem, check_lambdas, lambda_path

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
        if not self.snr > 0:  # NaN fails too; inf is the noiseless design
            raise ValueError(f"snr must be positive, got {self.snr}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not 0 <= self.omega < np.inf:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.B < 100:
            raise ValueError(f"B must be >= 100, got {self.B}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.eigen_sign not in ("minus", "plus"):
            raise ValueError(f"eigen_sign must be 'minus' or 'plus', got {self.eigen_sign!r}")
        named = isinstance(self.test_lambda, str)
        if not named and np.ndim(self.test_lambda) == 0:
            check_lambdas(self.test_lambda, "test_lambda")
        elif not (named and self.test_lambda in ("ess_min", "gcv_min")):
            want = "'ess_min', 'gcv_min' or a positive number"
            raise ValueError(f"test_lambda must be {want}, got {self.test_lambda!r}")
        grid = np.sort(check_lambdas(self.lambda_grid, "lambda_grid"))
        # summary.json and the records CSV key each grid point by this label
        labels = [f"{lam:g}" for lam in grid]
        if len(set(labels)) < len(labels):
            raise ValueError(f"lambda_grid values must have distinct %g labels, got {labels}")
        # ascending, so the grid's neighbours are the refinement's neighbours
        object.__setattr__(self, "lambda_grid", tuple(grid.tolist()))


def true_multipliers(omega: float, p: int = 10, eigen_sign: str = "minus") -> np.ndarray:
    """Eigenvalues of the true operator on the cosine basis."""
    lap = (np.arange(1, p + 1) * np.pi) ** 2
    return lap + omega**2 if eigen_sign == "plus" else lap - omega**2


def calibrate_sigma(omega: float, snr: float, p: int = 10, eigen_sign: str = "minus") -> float:
    """Noise scale matching the target signal-to-noise ratio.

    With unit-variance scores, E||D(U)||^2 = sum_k k^{-6} mu_k^2 and
    E||eps||^2 = p sigma^2, so sigma = sqrt(sum_k k^{-6} mu_k^2 / (p snr^2)).
    """
    if not snr > 0:
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


def ess(fitted: np.ndarray, data: DataSet, true_multipliers: np.ndarray):
    """Error sum of squares sum_i ||(D_hat - D)(U_i)||^2.

    ``fitted`` is the (n, p) matrix of fitted response coefficients
    D_hat(U_i) for the predictors of ``data``, or a stack (..., n, p) of
    them, which gives one sum per matrix.
    """
    return np.sum((fitted - data.U * true_multipliers) ** 2, axis=(-2, -1))


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
        for idx, lam in enumerate(self.config.lambda_grid):
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


def _refine_ess_lambda(system, mu, grid, ess_grid, rounds):
    """Log-space refinement of the ESS-minimizing lambda around the grid min.

    Each round solves, in one call, 5 log-spaced candidates between the
    neighbours of the minimum (a decade out past an end of the ascending
    grid) that lie more than 1e-12 in log from every lambda already tried.
    """
    lams, vals = np.asarray(grid, dtype=float), np.asarray(ess_grid, dtype=float)
    for _ in range(rounds):
        i = int(np.argmin(vals))
        lo = lams[i - 1] if i > 0 else lams[i] / 10
        hi = lams[i + 1] if i < lams.size - 1 else lams[i] * 10
        candidates = np.exp(np.linspace(np.log(lo), np.log(hi), 7))[1:-1]
        tried = np.any(np.abs(np.log(candidates[:, None] / lams)) < 1e-12, axis=1)
        candidates = candidates[~tried]
        j = np.searchsorted(lams, candidates)
        lams = np.insert(lams, j, candidates)
        vals = np.insert(vals, j, ess(system.fitted(system.solve(candidates)), system.data, mu))
    i = int(np.argmin(vals))
    return float(lams[i]), float(vals[i])


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
    grid = config.lambda_grid

    path, fitted = lambda_path(system, grid)
    ess_l = ess(fitted, data, mu)
    ess_min_lam, ess_min_val = _refine_ess_lambda(system, mu, grid, ess_l, config.refine_rounds)

    theta = fit_parametric(data, family)
    ess_theta = ess(family.apply(data.U, theta.theta), data, mu)
    tss_val = tss(data, mu)

    gof = None
    test_lambda = q_n = p_value = reject = None
    if config.run_test:
        if config.test_lambda == "ess_min":
            test_lambda = ess_min_lam
        elif config.test_lambda == "gcv_min":
            test_lambda = path.best_lambda
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
        ess_lambda=ess_l,
        rss_lambda=path.rss,
        gcv_lambda=path.gcv,
        trace_lambda=path.trace,
        gcv_best_lambda=path.best_lambda,
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


def mc_kernels(config: SimConfig) -> tuple[BasisSystem, KernelMatrices]:
    """The basis and kernel matrices every replication of ``config`` uses.

    They depend on ``p``, ``n_quad`` and ``h`` only, so a command running
    several cells that share those settings builds them once.
    """
    basis = make_cosine_basis(config.p, config.n_quad)
    return basis, assemble(basis, **DEFAULT_OPERATORS, spec=KernelSpec(h=config.h))


def replication_dataset(
    config: SimConfig, rep: int = 0, basis: BasisSystem | None = None
) -> tuple[DataSet, np.ndarray]:
    """The dataset drawn by replication ``rep`` of ``run_mc(config)``."""
    data_seed, _ = _rep_streams(config.seed, rep)
    return gen_dataset(config, np.random.default_rng(data_seed), basis)


def run_mc(
    config: SimConfig,
    progress: bool = False,
    kernels: tuple[BasisSystem, KernelMatrices] | None = None,
) -> McReport:
    """Run the Monte Carlo study; deterministic for a given config.

    Replications run in order, each on its own RNG streams spawned from
    ``config.seed``.  A failing replication aborts the study with its
    index before the next one starts, unless ``config.skip_failures`` is
    set, in which case it is recorded in ``report.skipped``; if every
    replication is skipped, the study raises RuntimeError.  ``kernels``,
    when given, must be the ``mc_kernels`` of a config with the same
    ``p``, ``n_quad`` and ``h``.
    """
    basis, km = mc_kernels(config) if kernels is None else kernels
    want = kernel_provenance(basis, **DEFAULT_OPERATORS, spec=KernelSpec(h=config.h))
    if km.provenance != want or (basis.p, len(basis.quad_nodes)) != (config.p, config.n_quad):
        raise ValueError("kernels were built for another p, n_quad or h than the config's")
    family = ParamFamily.scaled_neg_laplacian(basis)

    records, skipped, dumps = [], [], []
    for rep in range(config.reps):
        try:
            record, gof = _run_rep(rep, config, basis, km, family, *_rep_streams(config.seed, rep))
        except Exception as exc:
            if not config.skip_failures:
                raise RuntimeError(f"replication {rep} failed: {exc}") from exc
            skipped.append((rep, str(exc)))
        else:
            records.append(record)
            if gof is not None and rep < config.keep_bootstrap:
                dumps.append((rep, gof.bootstrap_values))
        if progress:
            print(f"\rreplication {rep + 1}/{config.reps}", end="", file=sys.stderr)
    if progress:
        print(file=sys.stderr)
    if not records:
        rep, reason = skipped[0]
        raise RuntimeError(
            f"all {config.reps} replications were skipped; replication {rep} failed: {reason}"
        )
    return McReport(
        config=config, records=tuple(records), skipped=tuple(skipped), bootstrap_dumps=tuple(dumps)
    )
