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
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .basis import BasisSystem, DataSet, make_cosine_basis
from .gof import STRATEGIES, ParamFamily, ParametricFit, raw_thetas, residual_test
from .gof import bootstrap_test  # noqa: F401  perfbench/tracer.py wraps sim.bootstrap_test by name
from .kernels import DEFAULT_OPERATORS, KernelMatrices, KernelSpec, assemble, kernel_provenance
from .regress import RidgeSystem, check_lambdas, lambda_path, sum_sq_diff

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
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.n_quad < 2 * self.p + 1:
            raise ValueError(f"n_quad must be >= 2p+1 = {2 * self.p + 1}, got {self.n_quad}")
        KernelSpec(h=self.h)  # raises, naming h, for a bandwidth the kernel cannot use
        if not self.snr > 0:  # NaN fails too; inf is the noiseless design
            raise ValueError(f"snr must be positive, got {self.snr}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not 0 <= self.omega < np.inf:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        # a finite noise scale keeps every response finite, which a study stacking its
        # cells' responses needs: a non-finite cell would not fail on its own
        with np.errstate(all="ignore"):
            sigma = calibrate_sigma(np.float64(self.omega), self.snr, self.p, self.eigen_sign)
        if not np.isfinite(sigma):
            raise ValueError(
                f"omega={self.omega:g} is too large for snr={self.snr:g}: the noise scale overflows"
            )
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("refine_rounds", "keep_bootstrap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.B < 100:
            raise ValueError(f"B must be >= 100, got {self.B}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.eigen_sign not in ("minus", "plus"):
            raise ValueError(f"eigen_sign must be 'minus' or 'plus', got {self.eigen_sign!r}")
        named = isinstance(self.test_lambda, str)
        if not named and np.ndim(self.test_lambda) == 0:
            check_lambdas(self.test_lambda, "test_lambda", self.n)
        elif not (named and self.test_lambda in ("ess_min", "gcv_min")):
            want = "'ess_min', 'gcv_min' or a positive number"
            raise ValueError(f"test_lambda must be {want}, got {self.test_lambda!r}")
        grid = np.sort(check_lambdas(self.lambda_grid, "lambda_grid", self.n))
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
    # snr * snr, not snr**2: a float's ** raises OverflowError where * gives inf, so a
    # huge snr gives sigma = 0, the noiseless design that snr = inf gives
    return float(np.sqrt(np.sum(ks**-6.0 * mu**2) / (p * snr * snr)))


def _draw(config: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The predictor scores U and the standard normal noise of one sample, both (n, p)."""
    ks = np.arange(1, config.p + 1)
    Z = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(config.n, config.p))
    return Z * ks**-3.0, rng.standard_normal((config.n, config.p))


def _responses(configs, U: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (C, p) true eigenvalues and (C, n, p) responses of C configs on one draw."""
    mus = np.array([true_multipliers(c.omega, c.p, c.eigen_sign) for c in configs])
    sigmas = np.array([calibrate_sigma(c.omega, c.snr, c.p, c.eigen_sign) for c in configs])
    return mus, U * mus[:, None] + sigmas[:, None, None] * noise


def gen_dataset(
    config: SimConfig, rng: np.random.Generator, basis: BasisSystem | None = None
) -> tuple[DataSet, np.ndarray]:
    """Draw one (U, F) sample; returns the dataset and the true eigenvalues."""
    if basis is None:
        basis = make_cosine_basis(config.p, config.n_quad)
    U, noise = _draw(config, rng)
    mus, F = _responses([config], U, noise)
    return DataSet(U=U, F=F[0], basis=basis), mus[0]


def ess(fitted: np.ndarray, data: DataSet, true_multipliers: np.ndarray):
    """Error sum of squares sum_i ||(D_hat - D)(U_i)||^2.

    ``fitted`` is the (n, p) matrix of fitted response coefficients
    D_hat(U_i) for the predictors of ``data``, or a stack (..., n, p) of
    them, which gives one sum per matrix; ``true_multipliers`` broadcasts
    against the stack as (..., 1, p).
    """
    return sum_sq_diff(fitted, data.U * true_multipliers)


def operator_ess(system: RidgeSystem, operators: np.ndarray, true_multipliers: np.ndarray):
    """``ess`` of the fits U D_hat' of (..., p, p) operators, ||R (D_hat - diag mu)'||^2.

    ``true_multipliers`` broadcasts against the stack as (..., p).
    """
    mu = np.asarray(true_multipliers)
    return system.fitted_sq_norms(operators - mu[..., None, :] * np.eye(mu.shape[-1]))


def tss(data: DataSet, true_multipliers: np.ndarray):
    """Total sum of squares sum_i ||D(U_i)||^2 of the true signal.

    A (C, 1, p) stack of eigenvalues gives one sum per row.
    """
    return np.sum((data.U * true_multipliers) ** 2, axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class McReport:
    """The replications of one cell as columns, plus the settings that produced them.

    ``columns`` holds the records CSV's columns in file order: ``rep``, the
    replication indices; ``ess_lambda``, ``rss_lambda``, ``gcv_lambda`` and
    ``trace_lambda``, each (reps, m) in grid order; ``gcv_best_lambda``,
    ``ess_min_lambda``, ``ess_min_value``, ``theta_hat``, ``ess_theta`` and
    ``tss``; and the test's ``test_lambda``, ``q_n``, ``p_value`` and boolean
    ``reject``, which are None without a test.  All others are (reps,) arrays,
    one row per completed replication.
    """

    config: SimConfig
    columns: dict
    skipped: tuple = ()
    bootstrap_dumps: tuple = field(default=(), repr=False)

    def header(self) -> list[str]:
        """The records CSV's field names: a column's, or <stat>_lam_<lambda> per grid point."""
        grid, names = self.config.lambda_grid, []
        for name, col in self.columns.items():
            stat = name.removesuffix("lambda")
            names += [f"{stat}lam_{lam:g}" for lam in grid] if np.ndim(col) == 2 else [name]
        return names

    def summary(self) -> dict:
        """Aggregate means with standard errors, reduced from the columns."""
        cols = self.columns
        grid = self.config.lambda_grid
        # one row per statistic, each reduced as a 1-D array of its own
        rows = np.concatenate([
            [cols["ess_theta"], cols["theta_hat"], cols["tss"], cols["ess_min_value"]],
            *(cols[name].T for name in ("ess_lambda", "gcv_lambda", "rss_lambda", "trace_lambda")),
        ])
        stats = _mean_se(rows)
        out = {
            "n": self.config.n,
            "snr": self.config.snr,
            "omega": self.config.omega,
            "eigen_sign": self.config.eigen_sign,
            "reps": len(cols["rep"]),
            "skipped": len(self.skipped),
            "per_lambda": {},
            **dict(zip(("ess_theta", "theta_hat", "tss", "ess_min"), stats)),
        }
        m = len(grid)
        for idx, lam in enumerate(grid):
            per = stats[4 + idx :: m]
            out["per_lambda"][f"{lam:g}"] = dict(zip(("ess", "gcv", "rss", "trace"), per))
        # the most frequent GCV choice; a tie goes to the smallest lambda, as in SweepResult
        best, counts = np.unique(cols["gcv_best_lambda"], return_counts=True)
        out["gcv_best_lambda_mode"] = float(best[np.argmax(counts)])
        if cols["p_value"] is not None:
            out["rejection_rate"] = float(np.mean(cols["reject"]))
            out["q_n"] = _mean_se([cols["q_n"]])[0]
        return out


def _mean_se(rows) -> list[dict]:
    """Mean and standard error of each row of a (fields, reps) table.

    The table convention: the mean with the sd of the mean in parentheses.
    """
    arr = np.ascontiguousarray(rows, dtype=float)
    means = arr.mean(axis=-1)
    reps = arr.shape[-1]
    ses = arr.std(axis=-1, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros(len(arr))
    return [
        {"mean": float(mean), "se": float(se), "display": f"{mean:.4g} ({float(se):.2g})"}
        for mean, se in zip(means, ses)
    ]


def _masked_argmin(vals: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Per row, ``np.argmin`` among the kept entries: the first NaN, else the first minimum."""
    masked = np.where(kept, vals, np.inf)
    low = masked.min(axis=-1, keepdims=True)
    return np.argmax(kept & ((masked == low) | np.isnan(masked)), axis=-1)


def _refine_ess_lambda(ess_of, grid, ess_grid, rounds):
    """Log-space refinement of each row's ESS-minimizing lambda around its grid min.

    ``ess_grid`` is the (C, m) ESS of C responses on the ascending ``grid``,
    and ``ess_of`` maps (C, 5) lambdas to their ESS.  Each round evaluates,
    per row, 5 log-spaced candidates between the neighbours of its minimum (a
    decade out past an end) and keeps those more than 1e-12 in log from every
    lambda the row tried.  A mask marks the kept lambdas of the (C, L) array,
    which one stable sort per round puts first and ascending, so neighbours
    skip dropped candidates.  Returns the (C,) lambdas and ESS of the minima.
    """
    vals = np.array(ess_grid, dtype=float)
    lams = np.broadcast_to(np.asarray(grid, dtype=float), vals.shape).copy()
    kept = np.ones(vals.shape, dtype=bool)
    rows = np.arange(len(vals))
    for _ in range(rounds):
        i = _masked_argmin(vals, kept)
        lam, last = lams[rows, i], kept.sum(axis=1) - 1
        lo = np.where(i > 0, lams[rows, i - 1], lam / 10)
        hi = np.where(i < last, lams[rows, np.minimum(i + 1, last)], lam * 10)
        # the interior of np.linspace(log lo, log hi, 7), row by row
        log_lo = np.log(lo)[:, None]
        cand = np.exp(np.arange(1.0, 6.0) * ((np.log(hi)[:, None] - log_lo) / 6) + log_lo)
        near = np.abs(np.log(cand[:, :, None] / lams[:, None])) < 1e-12
        lams = np.concatenate([lams, cand], axis=1)
        vals = np.concatenate([vals, ess_of(cand)], axis=1)
        kept = np.concatenate([kept, ~np.any(near & kept[:, None], axis=2)], axis=1)
        order = np.argsort(np.where(kept, lams, np.inf), axis=1, kind="stable")
        lams, vals, kept = (a[rows[:, None], order] for a in (lams, vals, kept))
    i = _masked_argmin(vals, kept)
    return lams[rows, i], vals[rows, i]


def _stack_rep(
    configs: tuple[SimConfig, ...],
    basis: BasisSystem,
    km: KernelMatrices,
    family: ParamFamily,
    data_seed: np.random.SeedSequence,
) -> tuple[RidgeSystem, dict, tuple | None]:
    """The shared step of a replication: one draw, one factorization, stacked responses.

    Cell c's response is F_c = U mu_c + sigma_c eps on the one draw (U, eps).
    The sweep, the ESS refinement, the parametric fit and, when the cells
    test, both residual sets of every cell come from one RidgeSystem of U.
    Returns the ``system``; the records CSV's columns from ``ess_lambda`` to
    ``tss``, in file order, each with a leading cell axis; and, when the
    cells test, the ``residual_test`` arguments (C test lambdas, (C, n, p)
    null and fit residuals), else None.
    """
    first = configs[0]
    U, noise = _draw(first, np.random.default_rng(data_seed))
    mus, F = _responses(configs, U, noise)
    system = RidgeSystem(DataSet(U=U, F=F[0], basis=basis), km, responses=F)
    data, grid = system.data, first.lambda_grid

    sweep, operators = lambda_path(system, grid)
    ess_l = operator_ess(system, operators, mus[:, None])
    ess_min = _refine_ess_lambda(
        lambda lams: operator_ess(system, system.operator_matrix(system.solve(lams)), mus[:, None]),
        grid, ess_l, first.refine_rounds,
    )
    thetas = [ParametricFit.clip(theta).theta for theta in raw_thetas(U, F, family).tolist()]
    null_fit = family.apply(U, np.array(thetas)[:, None, None])
    columns = {
        "ess_lambda": ess_l,
        "rss_lambda": sweep.rss,
        "gcv_lambda": sweep.gcv,
        "trace_lambda": np.broadcast_to(sweep.trace, sweep.gcv.shape),
        "gcv_best_lambda": sweep.best_lambda,
        "ess_min_lambda": ess_min[0],
        "ess_min_value": ess_min[1],
        "theta_hat": thetas,
        "ess_theta": ess(null_fit, data, mus[:, None]),
        "tss": tss(data, mus[:, None]),
    }
    if not first.run_test:
        return system, columns, None
    if first.test_lambda == "ess_min":
        lams = ess_min[0].tolist()
    elif first.test_lambda == "gcv_min":
        lams = sweep.best_lambda.tolist()
    else:
        lams = [float(first.test_lambda)] * len(configs)
    fit_at_test = system.fitted(system.solve(np.array(lams)[:, None]))
    return system, columns, (lams, F - null_fit, (system.F - fit_at_test)[:, 0])


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
    """Run the Monte Carlo study of one cell; ``run_mc_cells([config], ...)[0]``."""
    return run_mc_cells([config], progress, kernels)[0]


def run_mc_cells(
    configs: Sequence[SimConfig],
    progress: bool = False,
    kernels: tuple[BasisSystem, KernelMatrices] | None = None,
) -> tuple[McReport, ...]:
    """Run the Monte Carlo study of cells that differ in ``omega`` only; one report per cell.

    Deterministic for given configs.  Replication r of every cell draws its
    data and its bootstrap multipliers from child r of ``SeedSequence(seed)``,
    which omega does not enter, so the cells share those streams (common
    random numbers).  Replications run in order.  Each one draws its data
    once, stacks the cells' responses on it and factors one RidgeSystem of
    the shared predictors; the sweep, the ESS refinement, the parametric fit
    and both residual sets then run over a leading cell axis.  The bootstrap
    test of every cell is one ``residual_test`` call on one (B, n) block.
    A replication's columns are those of ``_stack_rep`` after ``rep``, then
    the test's ``test_lambda``, ``q_n`` and ``p_value``, each (C, ...); the
    study stacks them once, at its end, into each cell's ``McReport.columns``,
    and keeps rows of the (C, B) replicate block as the bootstrap dumps of
    the first ``keep_bootstrap`` replications.  Each cell's report equals
    ``run_mc`` of that cell alone, bit for bit.

    A failing replication aborts the study before the next replication
    starts, naming the replication (and, among several cells, the first
    cell's omega), unless ``skip_failures`` is set, in which case every
    cell's ``report.skipped`` records it with the same reason; if every
    replication is skipped, the study raises RuntimeError naming the first
    cell.  A failure is always the whole replication's: the failures it can
    meet (a degenerate GCV denominator on the shared trace, predictors
    without energy) hit every cell alike.
    ``kernels``, when given, must be the ``mc_kernels`` of a config with the
    same ``p``, ``n_quad`` and ``h``.  Configs that differ in anything but
    ``omega`` raise ValueError.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("a study needs at least one cell")
    first = configs[0]
    for config in configs[1:]:
        differ = [
            f.name
            for f in fields(SimConfig)
            if f.name != "omega" and getattr(config, f.name) != getattr(first, f.name)
        ]
        if differ:
            raise ValueError(f"cells must differ in omega only, not in {', '.join(differ)}")
    basis, km = mc_kernels(first) if kernels is None else kernels
    want = kernel_provenance(basis, **DEFAULT_OPERATORS, spec=KernelSpec(h=first.h))
    if km.provenance != want or (basis.p, len(basis.quad_nodes)) != (first.p, first.n_quad):
        raise ValueError("kernels were built for another p, n_quad or h than the config's")
    family = ParamFamily.scaled_neg_laplacian(basis)
    where = f"omega={first.omega:g}: " if len(configs) > 1 else ""

    done = []  # the (C, ...) columns of each completed replication
    dumps = [[] for _ in configs]
    skipped = []  # every cell's: a failure is its replication's
    for rep in range(first.reps):
        data_seed, boot_seed = _rep_streams(first.seed, rep)
        try:
            system, cols, test = _stack_rep(configs, basis, km, family, data_seed)
            if test:
                q_n, q_boot, p_value = residual_test(system, *test, first.B, first.strategy,
                                                     boot_seed)
        except Exception as exc:
            if not first.skip_failures:
                raise RuntimeError(f"{where}replication {rep} failed: {exc}") from exc
            skipped.append((rep, str(exc)))
        else:
            cols = {"rep": [rep] * len(configs), **cols}
            if test:
                cols.update(test_lambda=test[0], q_n=q_n, p_value=p_value)
                if rep < first.keep_bootstrap:
                    for cell, values in enumerate(q_boot):
                        dumps[cell].append((rep, values))
            done.append(cols)
        if progress:
            print(f"\rreplication {rep + 1}/{first.reps}", end="", file=sys.stderr)
    if progress:
        print(file=sys.stderr)
    if not done:
        rep, reason = skipped[0]
        raise RuntimeError(
            f"{where}all {first.reps} replications were skipped; replication {rep} failed: {reason}"
        )
    # (C, reps, ...): row c holds cell c's columns, each contiguous
    stacked = {name: np.stack([cols[name] for cols in done], axis=1) for name in done[0]}
    if first.run_test:
        stacked["reject"] = stacked["p_value"] < first.alpha
    untested = {} if first.run_test else dict.fromkeys(("test_lambda", "q_n", "p_value", "reject"))
    return tuple(
        McReport(config, {**{name: col[c] for name, col in stacked.items()}, **untested},
                 tuple(skipped), tuple(dumps[c]))
        for c, config in enumerate(configs)
    )
