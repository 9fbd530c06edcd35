"""The orthonormal cosine basis on an interval, with quadrature-backed geometry.

Functions are represented by coefficient vectors over the orthonormal
cosine system phi_k(x) = sqrt(2/L) * cos(k*pi*(x-a)/L), k = 1..p, on [a, b]
with L = b - a, which on the unit interval reduces to
phi_k(x) = sqrt(2) * cos(k*pi*x).  It is the only basis: the estimator, the
test's parametric family and the simulation design are all diagonal on it.

All inner products and projections are backed by a composite Gauss-Legendre
rule whose nodes and weights live on the BasisSystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import SingularSystemError

#: nodes per quadrature panel; panels are equal-width subintervals of [a, b]
_PANEL_TARGET = 10


def composite_gauss_legendre(
    n_nodes: int, interval: tuple[float, float] = (0.0, 1.0)
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with ``n_nodes`` total nodes on [a, b].

    The interval is split into equal-width panels of roughly
    ``_PANEL_TARGET`` nodes each; node counts are distributed so the total
    is exactly ``n_nodes``.  Uniform panel resolution keeps narrow
    translation-invariant kernels (bandwidths well below the interval
    length) resolved everywhere, which a single global rule does not
    guarantee near the interval center.

    Returns:
        (nodes, weights): strictly increasing nodes interior to [a, b] and
        positive weights summing to b - a.
    """
    a, b = interval
    if not b > a:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    n_panels = max(1, int(np.ceil(n_nodes / _PANEL_TARGET)))
    per, extra = divmod(n_nodes, n_panels)
    counts = [per + 1] * extra + [per] * (n_panels - extra)
    edges = np.linspace(a, b, n_panels + 1)
    rules = {count: np.polynomial.legendre.leggauss(count) for count in set(counts)}
    nodes, weights = [], []
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        x, w = rules[count]
        nodes.append((hi - lo) / 2 * (x + 1) + lo)
        weights.append(w * (hi - lo) / 2)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True, eq=False)
class BasisSystem:
    """The cosine basis of p functions on [a, b] plus a quadrature rule.

    Attributes:
        interval: domain endpoints (a, b); the boundary set is {a, b}.
        p: number of basis functions.
        quad_nodes: quadrature nodes, strictly increasing inside [a, b].
        quad_weights: positive weights summing to b - a.
        kind: always "cosine"; recorded in kernel and ingest provenance.
    """

    kind: ClassVar[str] = "cosine"

    interval: tuple[float, float]
    p: int
    quad_nodes: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        a, b = self.interval
        if not b > a:
            raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        x, w = self.quad_nodes, self.quad_weights
        if np.any(np.diff(x) <= 0) or x[0] <= a - 1e-12 or x[-1] >= b + 1e-12:
            raise ValueError("quad_nodes must be strictly increasing inside [a, b]")
        if np.any(w <= 0):
            raise ValueError("quad_weights must be positive")
        if abs(w.sum() - (b - a)) > 1e-10:
            raise ValueError(
                f"quad_weights must sum to b - a; off by {abs(w.sum() - (b - a)):.2e}"
            )

    @property
    def length(self) -> float:
        a, b = self.interval
        return b - a

    @property
    def frequencies(self) -> np.ndarray:
        """k*pi/L for k = 1..p; -laplacian scales phi_k by the square of the k-th."""
        return np.arange(1, self.p + 1) * np.pi / self.length

    def values(self, x: np.ndarray) -> np.ndarray:
        """Matrix of phi_k(x) values, shape (len(x), p)."""
        return self.deriv_values(x, order=0)

    def deriv_values(self, x: np.ndarray, order: int = 1) -> np.ndarray:
        """Matrix of d^order phi_k / dx^order values, shape (len(x), p)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a, _ = self.interval
        L = self.length
        ks = np.arange(1, self.p + 1)
        arg = np.outer(x - a, ks) * np.pi / L
        amp = np.sqrt(2.0 / L) * self.frequencies**order
        if order % 2 == 0:
            vals = amp * np.cos(arg)
        else:
            vals = -amp * np.sin(arg)
        sign = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0}[order % 4]
        return sign * vals

    def quad_values(self) -> np.ndarray:
        """phi_k on the quadrature grid, shape (n_quad, p)."""
        return self.values(self.quad_nodes)

    def gram(self) -> np.ndarray:
        """Quadrature Gram matrix G_jk = sum_m w_m phi_j(x_m) phi_k(x_m)."""
        phi = self.quad_values()
        return (phi * self.quad_weights[:, None]).T @ phi

    def compatible_with(self, other: "BasisSystem") -> bool:
        return (
            self.p == other.p
            and self.interval == other.interval
            and len(self.quad_nodes) == len(other.quad_nodes)
        )


@dataclass(frozen=True, eq=False)
class FuncVec:
    """A function in span{phi_1..phi_p} stored as its coefficient vector."""

    coeffs: np.ndarray
    basis: BasisSystem

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or c.size != self.basis.p:
            raise ValueError(
                f"coefficient length {c.size} does not match basis p={self.basis.p}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")


@dataclass(frozen=True, eq=False)
class DataSet:
    """A sample of paired functions as finite coefficient matrices U, F (n x p)."""

    U: np.ndarray
    F: np.ndarray
    basis: BasisSystem

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        F = np.asarray(self.F, dtype=float)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "F", F)
        if U.ndim != 2 or F.ndim != 2 or U.shape != F.shape:
            raise ValueError(f"U and F must share shape (n, p); got {U.shape}, {F.shape}")
        if U.shape[0] < 1:
            raise ValueError("need at least one observation")
        if U.shape[1] != self.basis.p:
            raise ValueError(
                f"column count {U.shape[1]} does not match basis p={self.basis.p}"
            )
        for name, mat in (("U", U), ("F", F)):
            if not np.isfinite(mat).all():
                row = np.flatnonzero(~np.isfinite(mat).all(axis=1))[0]
                raise ValueError(f"{name} holds a non-finite entry in row {row}")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def p(self) -> int:
        return self.U.shape[1]


def make_cosine_basis(
    p: int, n_quad: int = 201, interval: tuple[float, float] = (0.0, 1.0)
) -> BasisSystem:
    """Cosine basis phi_k(x) = sqrt(2/L) cos(k*pi*(x-a)/L) with a GL rule.

    Args:
        p: number of basis functions, >= 1.
        n_quad: total quadrature nodes, >= 2p + 1.
        interval: domain (a, b); defaults to the unit interval.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if n_quad < 2 * p + 1:
        raise ValueError(f"n_quad must be >= 2p+1 = {2 * p + 1}, got {n_quad}")
    nodes, weights = composite_gauss_legendre(n_quad, interval)
    return BasisSystem(interval=tuple(interval), p=p, quad_nodes=nodes, quad_weights=weights)


def evaluate(f: FuncVec, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c_k phi_k at the points x."""
    return f.basis.values(x) @ f.coeffs


def l2_inner(f: FuncVec, g: FuncVec) -> float:
    """L2 inner product <f, g>; equals the coefficient dot product."""
    if f.basis is not g.basis and not f.basis.compatible_with(g.basis):
        raise ValueError("FuncVec arguments live on different bases")
    return float(f.coeffs @ g.coeffs)


def distinct_samples(x: np.ndarray, y: np.ndarray, basis: BasisSystem) -> tuple:
    """One curve's samples sorted by abscissa, with repeated abscissae dropped.

    Of each run of equal abscissae the first in input order is kept.
    ``y`` holds the values along its first axis.  Raises if there are fewer
    distinct abscissae than basis functions or the samples fail to cover the
    basis quadrature span.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[0] != x.size:
        raise ValueError("x and y must have the same length")
    order = np.argsort(x, kind="stable")
    x = x[order]
    keep = np.concatenate([[True], np.diff(x) > 0])
    x, y = x[keep], y[order[keep]]
    if x.size < basis.p:
        raise SingularSystemError(
            f"projection design is rank deficient: {x.size} distinct nodes < p={basis.p}"
        )
    # values are only ever needed at the quadrature nodes, so coverage of
    # their span guarantees the interpolant never extrapolates
    lo, hi = basis.quad_nodes[0], basis.quad_nodes[-1]
    slack = 1e-9 * basis.length
    if x[0] > lo + slack or x[-1] < hi - slack:
        raise ValueError(
            f"samples cover [{x[0]:.6g}, {x[-1]:.6g}], short of the quadrature span "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    return x, y


def resample_to_quad_grid(xs, ys, basis: BasisSystem) -> np.ndarray:
    """Curves interpolated onto the basis quadrature grid, shape (S, n_quad, V).

    ``xs`` holds S knot vectors and ``ys`` the values at them, each of shape
    (m_s, V), as :func:`distinct_samples` returns them.  Curves are stacked
    by knot count; each stack of four or more knots gets one not-a-knot cubic
    spline, a smaller one linear interpolation.
    """
    nodes = basis.quad_nodes
    sizes = np.array([x.size for x in xs])
    out = np.empty((len(xs), nodes.size, ys[0].shape[1]))
    for m in np.unique(sizes):
        rows = np.flatnonzero(sizes == m)
        x = np.stack([xs[i] for i in rows])
        y = np.stack([ys[i] for i in rows])
        pieces = _cubic_pieces(x, y) if m >= 4 else _linear_pieces(x, y)
        out[rows] = _evaluate_pieces(x, pieces, nodes)
    return out


def _linear_pieces(x: np.ndarray, y: np.ndarray) -> list:
    """Polynomial coefficients, highest degree first, of each linear piece."""
    return [np.diff(y, axis=1) / np.diff(x, axis=1)[..., None], y[:, :-1]]


def _cubic_pieces(x: np.ndarray, y: np.ndarray) -> list:
    """Coefficients, highest degree first, of the not-a-knot cubic spline pieces.

    ``x`` is (S, m) with m >= 4 strictly increasing knots per row and ``y``
    is (S, m, V).  The knot slopes s solve the tridiagonal system of
    scipy's ``CubicSpline`` (de Boor, A Practical Guide to Splines, 1978,
    ch. IV).  Subtracting each not-a-knot end row from its neighbour leaves
    a strictly diagonally dominant system in s_1..s_{m-2}, which a Thomas
    sweep solves without pivoting.
    """
    dx = np.diff(x, axis=1)
    w = dx[..., None]  # broadcasts against the V value columns
    slope = np.diff(y, axis=1) / w
    d0 = (x[:, 2] - x[:, 0])[:, None]
    d1 = (x[:, -1] - x[:, -3])[:, None]
    # end rows: dx_1 s_0 + d0 s_1 = rhs0 and d1 s_{m-2} + dx_{m-3} s_{m-1} = rhs1
    rhs0 = ((w[:, 0] + 2 * d0) * w[:, 1] * slope[:, 0] + w[:, 0] ** 2 * slope[:, 1]) / d0
    rhs1 = (w[:, -1] ** 2 * slope[:, -2] + (2 * d1 + w[:, -1]) * w[:, -2] * slope[:, -1]) / d1
    # row r = 1..m-2: dx_r s_{r-1} + 2 (dx_{r-1} + dx_r) s_r + dx_{r-1} s_{r+1}, less
    # the end row it shares an unknown with (that unknown's coefficients match)
    lower, upper = w[:, 1:], w[:, :-1]
    diag = 2 * (w[:, :-1] + w[:, 1:])
    rhs = 3 * (w[:, 1:] * slope[:, :-1] + w[:, :-1] * slope[:, 1:])
    diag[:, 0] -= d0
    diag[:, -1] -= d1
    rhs[:, 0] -= rhs0
    rhs[:, -1] -= rhs1
    k = diag.shape[1]
    for r in range(1, k):
        factor = lower[:, r] / diag[:, r - 1]
        diag[:, r] -= factor * upper[:, r - 1]
        rhs[:, r] -= factor * rhs[:, r - 1]
    s = np.empty_like(y)
    s[:, k] = rhs[:, k - 1] / diag[:, k - 1]
    for r in range(k - 2, -1, -1):
        s[:, r + 1] = (rhs[:, r] - upper[:, r] * s[:, r + 2]) / diag[:, r]
    s[:, 0] = (rhs0 - d0 * s[:, 1]) / w[:, 1]
    s[:, -1] = (rhs1 - d1 * s[:, -2]) / w[:, -2]
    t = (s[:, :-1] + s[:, 1:] - 2 * slope) / w
    return [t / w, (slope - s[:, :-1]) / w - t, s[:, :-1], y[:, :-1]]


def _evaluate_pieces(x: np.ndarray, pieces: list, nodes: np.ndarray) -> np.ndarray:
    """Piecewise polynomials of every row of ``x`` at the sorted ``nodes``.

    Node q falls in piece i of row s when x[s, i] <= nodes[q] < x[s, i + 1],
    clipped to the first and last piece.  That index counts the interior
    knots at or below the node: one ``searchsorted`` places each interior
    knot among the nodes, and a running sum over the nodes does the count.
    """
    S, m = x.shape
    n = nodes.size
    first = np.searchsorted(nodes, x[:, 1:-1], side="left")
    counts = np.bincount((np.arange(S)[:, None] * (n + 1) + first).ravel(), minlength=S * (n + 1))
    index = np.cumsum(counts.reshape(S, n + 1)[:, :n], axis=1)
    flat = (index + np.arange(S)[:, None] * (m - 1)).ravel()
    h = (nodes - np.take(x[:, :-1], flat).reshape(S, n)).ravel()
    # one gather of every coefficient of each node's piece, laid out as
    # (degree + 1, V, S * n) so that the Horner steps run along long rows
    table = np.stack(pieces).transpose(0, 3, 1, 2).reshape(len(pieces), -1, S * (m - 1))
    terms = np.take(table, flat, axis=2)
    value = terms[0]
    for term in terms[1:]:
        value = value * h + term
    return value.T.reshape(S, n, -1)


def project(
    x: np.ndarray,
    y: np.ndarray,
    basis: BasisSystem,
    penalty: float = 0.0,
) -> FuncVec:
    """Least-squares projection of sampled curve values onto the basis.

    The samples are resampled onto the basis quadrature grid (cubic spline
    for >= 4 points, linear otherwise) and the coefficients minimize the
    quadrature-weighted squared error
    sum_m w_m (y(x_m) - sum_k c_k phi_k(x_m))^2, optionally plus a
    roughness penalty ``penalty * sum_k (k*pi/L)^4 c_k^2`` (cosine basis).

    Args:
        x: sample abscissae; at least p distinct values covering [a, b].
        y: sample values, same length as x.
        basis: target basis.
        penalty: roughness penalty weight; 0 gives the plain projection.

    Raises:
        SingularSystemError: fewer distinct abscissae than basis functions.
        ValueError: samples fail to cover the basis interval.
    """
    knots, values = distinct_samples(x, y, basis)
    grid = resample_to_quad_grid([knots], [values.reshape(-1, 1)], basis)
    coeffs = solve_projection(basis.quad_values(), grid[0, :, 0], basis, penalty)
    return FuncVec(coeffs=coeffs, basis=basis)


def solve_projection(
    design: np.ndarray, values: np.ndarray, basis: BasisSystem, penalty: float
) -> np.ndarray:
    """Quadrature-weighted least squares on the basis quadrature grid.

    Minimizes sum_m w_m (values_m - (design @ c)_m)^2, plus
    ``penalty * sum_k (k*pi/L)^4 c_k^2`` on the last p coefficients; a
    penalty of 0 gives the plain fit.  The last p columns of ``design`` must
    be the basis values on the grid; earlier columns (such as a constant) go
    unpenalized.  ``values`` may hold one curve per column.

    Raises:
        ValueError: ``penalty`` is negative or not finite.
        SingularSystemError: the normal equations are singular.
    """
    if not 0 <= penalty < np.inf:
        raise ValueError(f"penalty must be finite and >= 0, got {penalty}")
    weighted = (design * basis.quad_weights[:, None]).T
    normal = weighted @ design
    if penalty > 0:
        normal[-basis.p:, -basis.p:] += penalty * np.diag(basis.frequencies**4)
    try:
        return np.linalg.solve(normal, weighted @ values)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"projection normal equations singular: {exc}") from exc
