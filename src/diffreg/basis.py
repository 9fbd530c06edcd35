"""Orthonormal function bases on an interval with quadrature-backed geometry.

Functions are represented by coefficient vectors over an orthonormal system
{phi_1, ..., phi_p} on [a, b].  The workhorse is the cosine system
phi_k(x) = sqrt(2/L) * cos(k*pi*(x-a)/L) with L = b - a, which on the unit
interval reduces to phi_k(x) = sqrt(2) * cos(k*pi*x).  A tabulated basis is
supported for user-supplied systems.

All inner products and projections are backed by a composite Gauss-Legendre
rule whose nodes and weights live on the BasisSystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from .errors import CapabilityError, SingularSystemError

#: nodes per quadrature panel; panels are equal-width subintervals of [a, b]
_PANEL_TARGET = 10

GRAM_TOL_DEFAULT = 1e-8


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
    nodes, weights = [], []
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        x, w = roots_legendre(count)
        nodes.append((hi - lo) / 2 * (x + 1) + lo)
        weights.append(w * (hi - lo) / 2)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True, eq=False)
class BasisSystem:
    """An orthonormal basis of p functions on [a, b] plus a quadrature rule.

    Attributes:
        interval: domain endpoints (a, b); the boundary set is {a, b}.
        p: number of basis functions.
        kind: "cosine" for the analytic cosine system, "custom" for a
            tabulated system.
        quad_nodes: quadrature nodes, strictly increasing inside [a, b].
        quad_weights: positive weights summing to b - a.
        tables: for kind="custom", per-operator value tables on the
            quadrature grid keyed by name ("values", "first_derivative",
            "second_derivative", "boundary_values").
    """

    interval: tuple[float, float]
    p: int
    kind: str
    quad_nodes: np.ndarray
    quad_weights: np.ndarray
    tables: dict = field(default_factory=dict, repr=False)

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

    def values(self, x: np.ndarray) -> np.ndarray:
        """Matrix of phi_k(x) values, shape (len(x), p)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "cosine":
            a, _ = self.interval
            L = self.length
            ks = np.arange(1, self.p + 1)
            return np.sqrt(2.0 / L) * np.cos(np.outer(x - a, ks) * np.pi / L)
        return self._table_at("values", x)

    def deriv_values(self, x: np.ndarray, order: int = 1) -> np.ndarray:
        """Matrix of d^order phi_k / dx^order values, shape (len(x), p)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "cosine":
            a, _ = self.interval
            L = self.length
            ks = np.arange(1, self.p + 1)
            arg = np.outer(x - a, ks) * np.pi / L
            amp = np.sqrt(2.0 / L) * (ks * np.pi / L) ** order
            if order % 2 == 0:
                vals = amp * np.cos(arg)
            else:
                vals = -amp * np.sin(arg)
            sign = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0}[order % 4]
            return sign * vals
        name = {1: "first_derivative", 2: "second_derivative"}.get(order)
        if name is None:
            raise CapabilityError(f"derivative order {order} not supported")
        return self._table_at(name, x)

    def boundary_values(self) -> np.ndarray:
        """phi_k at the two endpoints, shape (2, p); row 0 is a, row 1 is b."""
        if self.kind == "cosine":
            return self.values(np.array(self.interval))
        table = self.tables.get("boundary_values")
        if table is None:
            raise CapabilityError("custom basis lacks a boundary_values table")
        return np.asarray(table, dtype=float)

    def quad_values(self) -> np.ndarray:
        """phi_k on the quadrature grid, shape (n_quad, p)."""
        if self.kind == "cosine":
            return self.values(self.quad_nodes)
        return np.asarray(self.tables["values"], dtype=float)

    def gram(self) -> np.ndarray:
        """Quadrature Gram matrix G_jk = sum_m w_m phi_j(x_m) phi_k(x_m)."""
        phi = self.quad_values()
        return (phi * self.quad_weights[:, None]).T @ phi

    def check_gram(self, tol: float = GRAM_TOL_DEFAULT) -> float:
        """Max deviation of the Gram matrix from identity; raises above tol."""
        dev = float(np.max(np.abs(self.gram() - np.eye(self.p))))
        if dev > tol:
            raise ValueError(f"basis fails orthonormality check: |G - I| = {dev:.2e}")
        return dev

    def compatible_with(self, other: "BasisSystem") -> bool:
        same_shape = (
            self.p == other.p
            and self.kind == other.kind
            and self.interval == other.interval
            and len(self.quad_nodes) == len(other.quad_nodes)
        )
        if not same_shape or self.kind != "custom":
            return same_shape
        return (
            np.array_equal(self.quad_nodes, other.quad_nodes)
            and np.array_equal(self.quad_weights, other.quad_weights)
            and self.tables.keys() == other.tables.keys()
            and all(np.array_equal(self.tables[k], other.tables[k]) for k in self.tables)
        )

    def _table_at(self, name: str, x: np.ndarray) -> np.ndarray:
        table = self.tables.get(name)
        if table is None:
            raise CapabilityError(f"custom basis lacks a '{name}' table")
        if x.shape == self.quad_nodes.shape and np.allclose(x, self.quad_nodes):
            return np.asarray(table, dtype=float)
        raise CapabilityError(
            "custom basis is tabulated on its quadrature grid only"
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
    """A sample of paired functions as coefficient matrices U, F (n x p)."""

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
    return BasisSystem(
        interval=tuple(interval), p=p, kind="cosine", quad_nodes=nodes, quad_weights=weights
    )


def make_tabulated_basis(
    interval: tuple[float, float],
    quad_nodes: np.ndarray,
    quad_weights: np.ndarray,
    values: np.ndarray,
    first_derivative: np.ndarray | None = None,
    second_derivative: np.ndarray | None = None,
    boundary_values: np.ndarray | None = None,
    gram_tol: float = GRAM_TOL_DEFAULT,
) -> BasisSystem:
    """User-supplied orthonormal basis tabulated on a quadrature grid.

    ``values`` has shape (n_quad, p).  Derivative tables are optional and
    enable differential-operator actions; without them those operators
    raise CapabilityError.  Orthonormality is verified against ``gram_tol``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != len(quad_nodes):
        raise ValueError("values must have shape (n_quad, p)")
    tables = {"values": values}
    for name, tab in (
        ("first_derivative", first_derivative),
        ("second_derivative", second_derivative),
        ("boundary_values", boundary_values),
    ):
        if tab is not None:
            tables[name] = np.asarray(tab, dtype=float)
    basis = BasisSystem(
        interval=tuple(interval),
        p=values.shape[1],
        kind="custom",
        quad_nodes=np.asarray(quad_nodes, dtype=float),
        quad_weights=np.asarray(quad_weights, dtype=float),
        tables=tables,
    )
    basis.check_gram(gram_tol)
    return basis


def evaluate(f: FuncVec, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c_k phi_k at the points x."""
    return f.basis.values(x) @ f.coeffs


def l2_inner(f: FuncVec, g: FuncVec) -> float:
    """L2 inner product <f, g>; equals the coefficient dot product."""
    if f.basis is not g.basis and not f.basis.compatible_with(g.basis):
        raise ValueError("FuncVec arguments live on different bases")
    return float(f.coeffs @ g.coeffs)


def resample_to_quad_grid(x: np.ndarray, y: np.ndarray, basis: BasisSystem) -> np.ndarray:
    """Sampled curve values interpolated onto the basis quadrature grid.

    Sorts and deduplicates the abscissae, then uses a cubic spline (linear
    below 4 points).  Raises if there are fewer distinct abscissae than
    basis functions or the samples fail to cover the basis interval.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    order = np.argsort(x)
    x, y = x[order], y[order]
    keep = np.concatenate([[True], np.diff(x) > 0])
    x, y = x[keep], y[keep]
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
    if x.size >= 4:
        return CubicSpline(x, y)(basis.quad_nodes)
    return np.interp(basis.quad_nodes, x, y)


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
    coeffs = solve_projection(
        basis.quad_values(), resample_to_quad_grid(x, y, basis), basis, penalty
    )
    return FuncVec(coeffs=coeffs, basis=basis)


def solve_projection(
    design: np.ndarray, values: np.ndarray, basis: BasisSystem, penalty: float
) -> np.ndarray:
    """Quadrature-weighted least squares on the basis quadrature grid.

    Minimizes sum_m w_m (values_m - (design @ c)_m)^2, plus
    ``penalty * sum_k (k*pi/L)^4 c_k^2`` on the last p coefficients when
    ``penalty > 0``.  The last p columns of ``design`` must be the basis
    values on the grid; earlier columns (such as a constant) go unpenalized.

    Raises:
        SingularSystemError: the normal equations are singular.
    """
    weighted = (design * basis.quad_weights[:, None]).T
    normal = weighted @ design
    if penalty > 0:
        ks = np.arange(1, basis.p + 1)
        normal[-basis.p:, -basis.p:] += penalty * np.diag((ks * np.pi / basis.length) ** 4)
    try:
        return np.linalg.solve(normal, weighted @ values)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"projection normal equations singular: {exc}") from exc
