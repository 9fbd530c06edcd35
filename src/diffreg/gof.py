"""Wild-bootstrap goodness-of-fit test for a parametric operator family.

The null model is F = theta * D0(U) + error for a base operator D0 with a
known action on the basis coefficients (by default D0 = -laplacian, so the
family is theta times the spectral multipliers (k*pi/L)^2).  The statistic
smooths the null residuals with the nonparametric fit's smoothing matrix,

    Q_n = n^{-1} || S_lambda vec(eps_tilde) ||^2,

and critical values come from wild-bootstrap replicates with two-point
golden-ratio multipliers whose first three moments are 0, 1, 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSystem, DataSet
from .errors import DegenerateDesignError
from .kernels import KernelMatrices
from .regress import RidgeSystem, SmoothingMatrix, smoothing_matrix

STRATEGIES = ("parametric", "nonparametric", "mixed")

_SQRT5 = np.sqrt(5.0)
#: two-point wild multiplier support and the probability of the larger point
GOLDEN_PLUS = (1.0 + _SQRT5) / 2.0
GOLDEN_MINUS = (1.0 - _SQRT5) / 2.0
GOLDEN_PLUS_PROB = (_SQRT5 - 1.0) / (2.0 * _SQRT5)


@dataclass(frozen=True, eq=False)
class ParamFamily:
    """A one-parameter operator family theta * D0 on coefficient vectors.

    D0 acts either diagonally through ``multipliers`` (spectral table) or
    through a full p x p coefficient ``matrix``.
    """

    kind: str
    multipliers: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def base_action(self, U: np.ndarray) -> np.ndarray:
        """D0 applied rowwise to coefficient rows of U."""
        if self.multipliers is not None:
            return U * self.multipliers
        if self.matrix is not None:
            return U @ self.matrix.T
        raise ValueError("ParamFamily needs multipliers or a matrix")

    def apply(self, U: np.ndarray, theta: float) -> np.ndarray:
        return theta * self.base_action(U)

    @staticmethod
    def scaled_neg_laplacian(basis: BasisSystem) -> "ParamFamily":
        """The family theta * (-laplacian), diagonal on the cosine basis."""
        ks = np.arange(1, basis.p + 1)
        return ParamFamily(
            kind="scaled_neg_laplacian", multipliers=(ks * np.pi / basis.length) ** 2
        )

    @staticmethod
    def from_matrix(matrix: np.ndarray, kind: str = "matrix") -> "ParamFamily":
        return ParamFamily(kind=kind, matrix=np.asarray(matrix, dtype=float))


@dataclass(frozen=True)
class ParametricFit:
    """Least-squares theta with boundary clipping bookkeeping."""

    theta: float
    theta_raw: float
    clipped: bool


def fit_parametric(data: DataSet, family: ParamFamily) -> ParametricFit:
    """Closed-form least squares for theta in F = theta * D0(U) + error.

    theta_raw = sum_i <F_i, D0 U_i> / sum_i ||D0 U_i||^2, clipped at the
    boundary of (0, inf) with ``clipped`` flagged so degenerate samples do
    not abort larger studies.
    """
    base = family.base_action(data.U)
    denom = float(np.sum(base**2))
    if denom == 0.0:
        raise DegenerateDesignError("predictors carry no energy under the base operator")
    theta_raw = float(np.sum(data.F * base)) / denom
    theta = max(theta_raw, 0.0)
    return ParametricFit(theta=theta, theta_raw=theta_raw, clipped=theta_raw <= 0.0)


def wild_multipliers(n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the golden-ratio two-point law.

    Takes the value (1 + sqrt 5)/2 with probability (sqrt 5 - 1)/(2 sqrt 5)
    and (1 - sqrt 5)/2 otherwise, giving mean 0 and second and third
    moments both equal to 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.where(rng.random(n) < GOLDEN_PLUS_PROB, GOLDEN_PLUS, GOLDEN_MINUS)


def qn_statistic(S: SmoothingMatrix, residuals: np.ndarray) -> float:
    """Q_n = n^{-1} || S vec(residuals) ||^2 for an n x p residual matrix."""
    residuals = np.asarray(residuals, dtype=float)
    n, p = residuals.shape
    if (n, p) != (S.n, S.p):
        raise ValueError(f"residuals are {residuals.shape}, smoother expects ({S.n}, {S.p})")
    smoothed = S.apply(residuals.flatten(order="F"))
    return float(smoothed @ smoothed) / n


@dataclass(frozen=True, eq=False)
class GofResult:
    """Outcome of the bootstrap goodness-of-fit test."""

    theta: ParametricFit
    q_n: float
    bootstrap_values: np.ndarray
    p_value: float
    strategy: str
    lam: float
    seed: int
    n_parametric_replicates: int

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": self.theta.theta,
            "theta_raw": self.theta.theta_raw,
            "theta_clipped": self.theta.clipped,
            "q_n": self.q_n,
            "p_value": self.p_value,
            "strategy": self.strategy,
            "lambda": self.lam,
            "seed": self.seed,
            "n_bootstrap": int(self.bootstrap_values.size),
            "n_parametric_replicates": self.n_parametric_replicates,
        }


def bootstrap_test(
    data: DataSet,
    km: KernelMatrices,
    lam: float,
    family: ParamFamily,
    B: int = 200,
    strategy: str = "mixed",
    seed: int = 0,
    system: RidgeSystem | None = None,
) -> GofResult:
    """Wild-bootstrap test of the parametric family against the smooth fit.

    Null residuals eps_tilde come from the least-squares theta; fit
    residuals eps_hat from the kernel estimator at ``lam``.  Replicate b
    multiplies the rows of one residual set by fresh wild multipliers and
    recomputes the statistic; under the mixed strategy the first
    round(B/3) replicates use the null residuals and the rest the fit
    residuals.  The p-value is 1 - B^{-1} #{b : Q_n >= Q_n^b}.

    Replicate multipliers are drawn from per-replicate RNG streams spawned
    from ``seed``, so results are reproducible and independent of any
    execution order.
    """
    if B < 100:
        raise ValueError(f"B must be >= 100, got {B}")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if system is None:
        system = RidgeSystem(data, km)
    n, p = data.n, data.p

    theta = fit_parametric(data, family)
    eps_null = data.F - family.apply(data.U, theta.theta)
    c_hat = system.solve(lam)
    eps_fit = data.F - system.fitted(c_hat)

    S = smoothing_matrix(data, km, lam, system=system)
    q_n = qn_statistic(S, eps_null)

    n_para = B if strategy == "parametric" else 0
    if strategy == "mixed":
        n_para = int(round(B / 3))

    streams = np.random.SeedSequence(seed).spawn(B)
    cols = np.empty((n * p, B))
    for b in range(B):
        delta = wild_multipliers(n, np.random.default_rng(streams[b]))
        source = eps_null if b < n_para else eps_fit
        cols[:, b] = (delta[:, None] * source).flatten(order="F")
    smoothed = S.apply(cols)
    q_boot = np.einsum("ij,ij->j", smoothed, smoothed) / n
    p_value = 1.0 - float(np.count_nonzero(q_n >= q_boot)) / B

    return GofResult(
        theta=theta,
        q_n=q_n,
        bootstrap_values=q_boot,
        p_value=p_value,
        strategy=strategy,
        lam=lam,
        seed=seed,
        n_parametric_replicates=n_para,
    )
