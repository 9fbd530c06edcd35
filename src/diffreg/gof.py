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

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .basis import BasisSystem, DataSet
from .errors import DegenerateDesignError
from .kernels import KernelMatrices
from .regress import RidgeSystem, check_lambdas

STRATEGIES = ("parametric", "nonparametric", "mixed")

_SQRT5 = np.sqrt(5.0)
#: two-point wild multiplier support and the probability of the larger point
GOLDEN_PLUS = (1.0 + _SQRT5) / 2.0
GOLDEN_MINUS = (1.0 - _SQRT5) / 2.0
GOLDEN_PLUS_PROB = (_SQRT5 - 1.0) / (2.0 * _SQRT5)
_WILD_SUPPORT = np.array([GOLDEN_MINUS, GOLDEN_PLUS])
_WILD_SUPPORT.flags.writeable = False

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# generate_state(4, uint64) draws 8 words; word i uses _STATE_CONST[i] and [i + 1]
_STATE_CONST = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)], np.uint32)


@dataclass(frozen=True, eq=False)
class ParamFamily:
    """A one-parameter operator family theta * D0 on coefficient vectors.

    D0 is diagonal on the cosine basis: it scales coefficient k by its
    spectral multiplier ``multipliers[k]``.
    """

    multipliers: np.ndarray

    def base_action(self, U: np.ndarray) -> np.ndarray:
        """D0 applied rowwise to coefficient rows of U."""
        return U * self.multipliers

    def apply(self, U: np.ndarray, theta: float) -> np.ndarray:
        return theta * self.base_action(U)

    @staticmethod
    def scaled_neg_laplacian(basis: BasisSystem) -> "ParamFamily":
        """The family theta * (-laplacian), diagonal on the cosine basis."""
        return ParamFamily(multipliers=basis.frequencies**2)


@dataclass(frozen=True)
class ParametricFit:
    """Least-squares theta with boundary clipping bookkeeping."""

    theta: float
    theta_raw: float
    clipped: bool

    @staticmethod
    def clip(theta_raw: float) -> "ParametricFit":
        """The fit of a least-squares theta, clipped at the boundary of (0, inf)."""
        theta = max(theta_raw, 0.0)
        return ParametricFit(theta=theta, theta_raw=theta_raw, clipped=theta_raw <= 0.0)


def raw_thetas(U: np.ndarray, F: np.ndarray, family: ParamFamily) -> np.ndarray:
    """Unclipped least-squares theta of F = theta * D0(U) + error, one per (n, p) response.

    theta_raw = sum_i <F_i, D0 U_i> / sum_i ||D0 U_i||^2 for every response
    of an (..., n, p) stack F to the predictors U.
    """
    base = family.base_action(U)
    denom = float(np.sum(base**2))
    if denom == 0.0:
        raise DegenerateDesignError("predictors carry no energy under the base operator")
    return np.sum(F * base, axis=(-2, -1)) / denom


def fit_parametric(data: DataSet, family: ParamFamily) -> ParametricFit:
    """Closed-form least squares for theta in F = theta * D0(U) + error.

    theta_raw (see ``raw_thetas``) is clipped at the boundary of (0, inf)
    with ``clipped`` flagged so degenerate samples do not abort larger
    studies.
    """
    return ParametricFit.clip(float(raw_thetas(data.U, data.F, family)))


def wild_multipliers(n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the golden-ratio two-point law.

    Takes the value (1 + sqrt 5)/2 with probability (sqrt 5 - 1)/(2 sqrt 5)
    and (1 - sqrt 5)/2 otherwise, giving mean 0 and second and third
    moments both equal to 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _WILD_SUPPORT.take(rng.random(n) < GOLDEN_PLUS_PROB)


def bootstrap_multipliers(n: int, B: int, seed: int) -> np.ndarray:
    """The (B, n) wild multipliers of the bootstrap replicates drawn from ``seed``.

    Row b is ``wild_multipliers(n, default_rng(SeedSequence(seed).spawn(B)[b]))``
    bit for bit, but no child is spawned.  Child b mixes the spawn key word b
    into the parent's pool exactly as SeedSequence.mix_entropy would, then
    runs generate_state(4, uint64) and PCG64's srandom, with all B children
    in one uint32 array pass; one PCG64 per call is set to each child's
    state in turn and draws its row, so concurrent calls share nothing.
    Child B - 1 is checked against numpy itself, so a change of numpy's
    seeding raises instead of changing the streams.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    # the parent's pool has consumed 4 fill and 12 cross hashes, plus 4 per word past the 4th
    words = max(1, -(-seed.bit_length() // 32))
    first = _INIT_A * pow(_MULT_A, 16 + 4 * max(words - 4, 0), 1 << 32)
    hash_const = np.array([first * pow(_MULT_A, k, 1 << 32) & _MASK32 for k in range(5)], np.uint32)
    hashed = (np.arange(B, dtype=np.uint32)[:, None] ^ hash_const[:-1]) * hash_const[1:]
    hashed ^= hashed >> 16
    parent_pool = np.random.SeedSequence(seed).pool
    pool = parent_pool * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
    pool ^= pool >> 16
    state_words = (np.tile(pool, 2) ^ _STATE_CONST[:-1]) * _STATE_CONST[1:]
    state_words ^= state_words >> 16
    bitgen = np.random.PCG64(0)  # set to each child's state below
    rng = np.random.Generator(bitgen)
    rows = []
    for s_hi, s_lo, i_hi, i_lo in state_words.astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = {"state": ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, "inc": inc}
        bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        rows.append(wild_multipliers(n, rng))
    check = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(B - 1,))).state["state"]
    if state != check:
        raise RuntimeError("derived bootstrap streams disagree with numpy's SeedSequence.spawn")
    return np.stack(rows)


def qn_statistic(system: RidgeSystem, lam: float, residuals: np.ndarray) -> float:
    """Q_n = n^{-1} || S vec(residuals) ||^2, S the smoother of ``system`` at ``lam``."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.shape != (system.n, system.p):
        raise ValueError(f"residuals are {residuals.shape}, expected ({system.n}, {system.p})")
    return float(system.smoothed_sq_norms(lam, residuals, np.ones((1, system.n)))[0]) / system.n


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
) -> GofResult:
    """Wild-bootstrap test of the parametric family against the smooth fit.

    Null residuals eps_tilde come from the least-squares theta; fit
    residuals eps_hat from the kernel estimator at ``lam``.  Replicate b
    multiplies the rows of one residual set by fresh wild multipliers and
    recomputes the statistic; under the mixed strategy the first
    round(B/3) replicates use the null residuals and the rest the fit
    residuals.  The p-value is 1 - B^{-1} #{b : Q_n >= Q_n^b}.

    Replicate b draws its multipliers from child b of
    ``SeedSequence(seed).spawn(B)`` through ``default_rng``, so results are
    reproducible and independent of any execution order; the child states
    are derived exactly in one vectorized pass rather than spawned (see
    ``bootstrap_multipliers``).  ``seed`` must be a non-negative integer.
    This is ``residual_test`` of one cell.
    """
    if B < 100:
        raise ValueError(f"B must be >= 100, got {B}")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    check_lambdas(lam)
    system = RidgeSystem(data, km)
    theta = fit_parametric(data, family)
    eps_null = data.F - family.apply(data.U, theta.theta)
    eps_fit = data.F - system.fitted(system.solve(lam))
    (result,) = residual_test(
        system, [lam], [theta], eps_null[None], eps_fit[None], B, strategy, seed
    )
    return result


def residual_test(
    system: RidgeSystem,
    lams: Sequence[float],
    thetas: Sequence[ParametricFit],
    eps_null: np.ndarray,
    eps_fit: np.ndarray,
    B: int,
    strategy: str,
    seed: int,
) -> tuple[GofResult, ...]:
    """The test of ``bootstrap_test`` for C cells on one system; one result per cell.

    Cell c is tested at ``lams[c]`` on its (n, p) residuals ``eps_null[c]``,
    those of the parametric fit ``thetas[c]``, and ``eps_fit[c]``; both
    residual arrays are (C, n, p) and the arguments are checked.  The (B, n)
    block of ``seed`` is drawn once and every cell's products run on it, so
    each result equals that cell's test alone, bit for bit.  The products
    run one cell at a time and hold (n, p^2) numbers at their peak: stacked
    over the cells they held C times that, which freshly allocated memory
    made slower at the simulation sizes.
    """
    n = system.n
    n_para = B if strategy == "parametric" else 0
    if strategy == "mixed":
        n_para = int(round(B / 3))
    multipliers = bootstrap_multipliers(n, B, seed)

    results = []
    for lam, theta, null, fit in zip(lams, thetas, eps_null, eps_fit):
        # the null residuals' outer product serves q_n and the null block of the bootstrap
        outer = system.residual_outer(null)
        q_n = float(system.projected_sq_norms(lam, np.ones((1, n)) @ outer)[0]) / n
        q_null = system.projected_sq_norms(lam, multipliers[:n_para] @ outer)
        del outer  # freed before the fit residuals' (n, p^2) product is built
        q_fit = system.smoothed_sq_norms(lam, fit, multipliers[n_para:])
        q_boot = np.concatenate([q_null, q_fit]) / n
        p_value = 1.0 - float(np.count_nonzero(q_n >= q_boot)) / B
        results.append(GofResult(
            theta=theta,
            q_n=q_n,
            bootstrap_values=q_boot,
            p_value=p_value,
            strategy=strategy,
            lam=lam,
            seed=seed,
            n_parametric_replicates=n_para,
        ))
    return tuple(results)
