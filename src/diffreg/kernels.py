"""Assembly of the p^2 x p^2 operator-kernel Gram matrices.

The operator kernel is separable: an interior term K1(x, xi) * K1(y, eta)
built from a Gaussian K1 with bandwidth h, plus an optional boundary term
1{x == xi} * K1(y, eta) over the two-point boundary with counting measure.
Under linear operators P (interior), B (boundary) and L (output), the Gram
matrix entries factor into products of 2-D quadratures:

    K[(j', k'), (j, k)]   = C[k', k] * M[j', j]
    K_L[(j', k'), (j, k)] = C[k', k] * M_L[j', j]

with C[k', k] = int int K1(x, xi) P phi_k'(x) P phi_k(xi) dx dxi
             (+ sum over boundary points of B phi_k' * B phi_k),
M    the K1 Gram of the basis, and M_L the same with K1 replaced by its
image under L acting on the first argument.  Flat indices pair (j, k) as
j + k*p (j fastest), so the full matrices are Kronecker products and no
4-D sums are ever formed.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem
from .errors import CapabilityError

OP_KINDS = (
    "identity",
    "neg_laplacian",
    "neg_laplacian_minus_const",
    "scaled_neg_laplacian",
    "first_derivative",
)


@dataclass(frozen=True)
class LinearOpSpec:
    """A linear differential operator usable in the P, B, L or D roles.

    Kinds (param meaning in parentheses):
        identity
        neg_laplacian                  -d^2/dx^2
        neg_laplacian_minus_const (c)  -d^2/dx^2 - c
        scaled_neg_laplacian (theta)   -theta * d^2/dx^2
        first_derivative               d/dx
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; expected one of {OP_KINDS}")

    def apply_grid(self, basis: BasisSystem) -> np.ndarray:
        """Values of (op phi_k) on the quadrature grid, shape (n_quad, p)."""
        return self._combine(
            basis.quad_values,
            lambda: self._grid_deriv(basis, 1),
            lambda: -self._grid_deriv(basis, 2),
        )

    def apply_boundary(self, basis: BasisSystem) -> np.ndarray:
        """Values of (op phi_k) at the two endpoints, shape (2, p)."""
        if self.kind != "identity" and basis.kind != "cosine":
            raise CapabilityError(
                f"boundary action of {self.kind!r} needs an analytic basis"
            )
        ends = np.array(basis.interval)
        return self._combine(
            basis.boundary_values,
            lambda: basis.deriv_values(ends, order=1),
            lambda: -basis.deriv_values(ends, order=2),
        )

    def apply_kernel_grid(self, diff: np.ndarray, h: float) -> np.ndarray:
        """[L_y K1](y, eta) on a grid, given diff = y - eta elementwise.

        Uses the analytic derivatives of the Gaussian; the first argument
        (rows of ``diff``) is the differentiated one.
        """
        k1 = gaussian_kernel(diff, h)
        return self._combine(
            lambda: k1,
            lambda: -diff / h**2 * k1,
            lambda: (h**2 - diff**2) / h**4 * k1,
        )

    def multipliers(self, basis: BasisSystem) -> np.ndarray:
        """Eigenvalues on the cosine basis for diagonal kinds.

        op phi_k = m_k phi_k with m_k built from (k*pi/L)^2; raises for
        kinds without a diagonal action.
        """
        if basis.kind != "cosine":
            raise CapabilityError("spectral multipliers require the cosine basis")

        def no_diagonal_action():
            raise CapabilityError(f"{self.kind!r} has no diagonal action on the cosine basis")

        lap = (np.arange(1, basis.p + 1) * np.pi / basis.length) ** 2
        return self._combine(lambda: np.ones(basis.p), no_diagonal_action, lambda: lap)

    def _combine(self, identity, first, neg_second) -> np.ndarray:
        """This operator's action, built from the parts its kind needs.

        Each part is a zero-argument callable giving the identity, d/dx or
        -d^2/dx^2 action, so parts a kind does not use are never computed.
        """
        if self.kind == "identity":
            return identity()
        if self.kind == "first_derivative":
            return first()
        if self.kind == "neg_laplacian":
            return neg_second()
        if self.kind == "neg_laplacian_minus_const":
            return neg_second() - self.param * identity()
        return self.param * neg_second()

    def _grid_deriv(self, basis: BasisSystem, order: int) -> np.ndarray:
        try:
            return basis.deriv_values(basis.quad_nodes, order=order)
        except CapabilityError as exc:
            word = "first" if order == 1 else "second"
            raise CapabilityError(
                f"operator {self.kind!r} needs {word} derivatives: {exc}"
            ) from exc


def identity_op() -> LinearOpSpec:
    return LinearOpSpec("identity")


def neg_laplacian() -> LinearOpSpec:
    return LinearOpSpec("neg_laplacian")


def neg_laplacian_minus_const(const: float) -> LinearOpSpec:
    return LinearOpSpec("neg_laplacian_minus_const", const)


def scaled_neg_laplacian(theta: float) -> LinearOpSpec:
    return LinearOpSpec("scaled_neg_laplacian", theta)


def first_derivative() -> LinearOpSpec:
    return LinearOpSpec("first_derivative")


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian-kernel settings for the separable operator kernel.

    Attributes:
        h: bandwidth of K1(s, t) = (2 pi h^2)^{-1/2} exp(-(s-t)^2 / (2 h^2)).
        include_boundary: add the boundary term 1{x == xi} K1(y, eta).
    """

    h: float
    include_boundary: bool = True

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"bandwidth h must be positive, got {self.h}")


def gaussian_kernel(diff: np.ndarray, h: float) -> np.ndarray:
    """Density-normalized Gaussian kernel evaluated at pairwise differences."""
    return np.exp(-(diff**2) / (2.0 * h * h)) / np.sqrt(2.0 * np.pi * h * h)


def kernel_gram(
    weights: np.ndarray,
    left_values: np.ndarray,
    right_values: np.ndarray,
    kernel_grid: np.ndarray,
) -> np.ndarray:
    """2-D quadrature int int k(s, t) f_i(s) g_j(t) ds dt for all (i, j).

    ``kernel_grid`` holds k at all node pairs (rows: s, columns: t);
    ``left_values``/``right_values`` hold f_i and g_j on the same nodes.
    The result is independent of node ordering as long as the three pieces
    are permuted consistently.
    """
    lw = left_values * weights[:, None]
    rw = right_values * weights[:, None]
    return lw.T @ kernel_grid @ rw


@dataclass(frozen=True, eq=False)
class KernelMatrices:
    """The assembled Gram matrices K and K_L plus assembly provenance."""

    K: np.ndarray
    K_L: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.K.shape != self.K_L.shape or self.K.shape[0] != self.K.shape[1]:
            raise ValueError("K and K_L must be square with identical shape")

    @property
    def p(self) -> int:
        return int(round(np.sqrt(self.K.shape[0])))


def psd_jitter(K: np.ndarray) -> float:
    """Diagonal jitter 1e-10 * trace(K) / dim, making small-h Grams factorable."""
    return 1e-10 * float(np.trace(K)) / K.shape[0]


def _factor_matrices(
    basis: BasisSystem,
    P: LinearOpSpec,
    B: LinearOpSpec,
    spec: KernelSpec,
    L: LinearOpSpec | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The (x, xi) factor C and the (y, eta) factor for the given L."""
    nodes, w = basis.quad_nodes, basis.quad_weights
    diff = nodes[:, None] - nodes[None, :]
    k1 = gaussian_kernel(diff, spec.h)

    p_vals = P.apply_grid(basis)
    C = kernel_gram(w, p_vals, p_vals, k1)
    C = (C + C.T) / 2
    if spec.include_boundary:
        b_vals = B.apply_boundary(basis)
        bc = b_vals.T @ b_vals
        C = C + (bc + bc.T) / 2

    phi = basis.quad_values()
    if L is None or L.kind == "identity":
        M = kernel_gram(w, phi, phi, k1)
        return C, (M + M.T) / 2
    return C, kernel_gram(w, phi, phi, L.apply_kernel_grid(diff, spec.h))


def kernel_provenance(
    basis: BasisSystem,
    P: LinearOpSpec,
    B: LinearOpSpec,
    L: LinearOpSpec,
    spec: KernelSpec,
) -> dict:
    """Every setting that determines the assembled K and K_L."""
    return {
        "p": basis.p,
        "interval": list(basis.interval),
        "basis_kind": basis.kind,
        "n_quad": int(len(basis.quad_nodes)),
        "h": spec.h,
        "include_boundary": spec.include_boundary,
        "P": {"kind": P.kind, "param": P.param},
        "B": {"kind": B.kind, "param": B.param},
        "L": {"kind": L.kind, "param": L.param},
        "flattening": "flat index (j, k) -> j + k*p, j fastest",
        "jitter_policy": "1e-10 * trace(K) / p^2 added before factorization",
    }


def assemble(
    basis: BasisSystem,
    P: LinearOpSpec,
    B: LinearOpSpec,
    L: LinearOpSpec,
    spec: KernelSpec,
) -> KernelMatrices:
    """Assemble K and K_L together with provenance metadata.

    K uses the identity as output operator and is symmetric PSD by
    construction; K_L applies L to the (y, eta) kernel factor.
    """
    C, M = _factor_matrices(basis, P, B, spec, L=None)
    _, M_L = _factor_matrices(basis, P, B, spec, L)
    return KernelMatrices(
        K=np.kron(C, M),
        K_L=np.kron(C, M_L),
        provenance=kernel_provenance(basis, P, B, L, spec),
    )


def save_kernel_matrices(km: KernelMatrices, path: str) -> None:
    """Write K, K_L and the provenance header to an .npz file.

    The file is written under a temporary name in the same directory and
    renamed into place, so a reader never sees a partial cache.
    """
    buf = io.BytesIO()
    np.savez_compressed(
        buf, K=km.K, K_L=km.K_L, provenance=json.dumps(km.provenance, sort_keys=True)
    )
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_kernel_matrices(path: str) -> KernelMatrices:
    """Read kernel matrices written by :func:`save_kernel_matrices`."""
    with np.load(path, allow_pickle=False) as data:
        provenance = json.loads(str(data["provenance"]))
        return KernelMatrices(K=data["K"], K_L=data["K_L"], provenance=provenance)
