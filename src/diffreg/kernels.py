"""Assembly of the operator-kernel Gram matrices in Kronecker-factor form.

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
j + k*p (j fastest), so K = C kron M and K_L = C kron M_L.  Only the three
p x p factors are assembled, stored and cached (3 p^2 numbers instead of
2 p^4); the p^2 x p^2 matrices are formed on request for dense checks.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem
from .errors import DataError, SingularSystemError

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

    def apply_at(self, basis: BasisSystem, x: np.ndarray) -> np.ndarray:
        """Values of (op phi_k) at the points x, shape (len(x), p)."""
        return self._combine(
            lambda: basis.values(x),
            lambda: basis.deriv_values(x, order=1),
            lambda: -basis.deriv_values(x, order=2),
        )

    def apply_kernel_grid(
        self, diff: np.ndarray, h: float, k1: np.ndarray | None = None
    ) -> np.ndarray:
        """[L_y K1](y, eta) on a grid, given diff = y - eta elementwise.

        Uses the analytic derivatives of the Gaussian; the first argument
        (rows of ``diff``) is the differentiated one.  ``k1``, when given,
        is ``gaussian_kernel(diff, h)`` already evaluated.
        """
        if k1 is None:
            k1 = gaussian_kernel(diff, h)
        return self._combine(
            lambda: k1,
            lambda: -diff / h**2 * k1,
            lambda: (h**2 - diff**2) / h**4 * k1,
        )

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


# P = -laplacian, B = identity, L = -laplacian: the simulation design, and
# the role defaults of a config's kernel section
DEFAULT_OPERATORS = {"P": neg_laplacian(), "B": identity_op(), "L": neg_laplacian()}


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
        if not 0 < self.h < np.inf:
            raise ValueError(f"bandwidth h must be positive and finite, got {self.h}")


def gaussian_kernel(diff: np.ndarray, h: float) -> np.ndarray:
    """Density-normalized Gaussian kernel evaluated at pairwise differences."""
    return np.exp(-(diff**2) / (2.0 * h * h)) / np.sqrt(2.0 * np.pi * h * h)


def kernel_gram(weights: np.ndarray, values: np.ndarray, kernel_grid: np.ndarray) -> np.ndarray:
    """2-D quadrature int int k(s, t) f_i(s) f_j(t) ds dt for all (i, j).

    ``kernel_grid`` holds k at all node pairs (rows: s, columns: t);
    ``values`` holds the f_i on the same nodes.  The result is independent
    of node ordering as long as the three pieces are permuted consistently.
    """
    wv = values * weights[:, None]
    return wv.T @ kernel_grid @ wv


_FACTORS = ("C", "M", "M_L")


@dataclass(frozen=True, eq=False)
class KernelMatrices:
    """The p x p factors of K = C kron M and K_L = C kron M_L, plus provenance.

    The factors are stored as read-only copies, so writing into them
    raises ValueError: ``whitening``, the part of the ridge factorization
    that depends on the kernel alone, is computed on first use and shared
    by every dataset fitted with this kernel, and must not go stale.
    """

    C: np.ndarray
    M: np.ndarray
    M_L: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        shapes = {np.shape(self.C), np.shape(self.M), np.shape(self.M_L)}
        if len(shapes) != 1 or self.C.ndim != 2 or self.C.shape[0] != self.C.shape[1]:
            raise ValueError("C, M and M_L must be square with identical shape")
        for name in _FACTORS:
            # a copy, so the caller's array keeps its own flags
            factor = np.array(getattr(self, name))
            factor.flags.writeable = False
            object.__setattr__(self, name, factor)

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def K(self) -> np.ndarray:
        """The dense p^2 x p^2 Gram matrix C kron M."""
        return np.kron(self.C, self.M)

    @property
    def K_L(self) -> np.ndarray:
        """The dense p^2 x p^2 Gram matrix C kron M_L."""
        return np.kron(self.C, self.M_L)

    @property
    def jitter(self) -> float:
        """psd_jitter(K), from the p^2 products on K's diagonal."""
        return _trace_jitter(np.outer(np.diag(self.C), np.diag(self.M)).ravel())

    @functools.cached_property
    def whitening(self) -> tuple[np.ndarray, ...]:
        """Kernel-only factors of the whitened ridge design: (Q_C, l_C, Q_M, d, H, H'H).

        C = Q_C diag(l_C) Q_C' and M = Q_M diag(l_M) Q_M' (both symmetrized)
        diagonalize K + jitter I, whose whitening weights are
        d = (l_C l_M + jitter)^{-1/2} in vec order k + j*p, k the C
        eigenpair.  H = M_L Q_M is the output side of the whitened design.
        Raises SingularSystemError when K + jitter I is not positive
        definite; a raised error is not cached, so every use raises.
        """
        l_C, Q_C = np.linalg.eigh((self.C + self.C.T) / 2)
        l_M, Q_M = np.linalg.eigh((self.M + self.M.T) / 2)
        # eigenvalues of K, indexed [C eigenpair, M eigenpair]
        eigs = np.outer(l_C, l_M)
        jitter = self.jitter
        if eigs.min() + jitter <= 0:
            cond = float(np.abs(eigs).max() / max(np.abs(eigs).min(), 1e-300))
            raise SingularSystemError(
                "kernel matrix K is not positive definite after jitter", cond
            )
        d = ((eigs + jitter) ** -0.5).ravel(order="F")
        H = self.M_L @ Q_M
        return Q_C, l_C, Q_M, d, H, H.T @ H


def psd_jitter(K: np.ndarray) -> float:
    """Diagonal jitter 1e-10 * trace(K) / dim, making small-h Grams factorable."""
    return _trace_jitter(np.diagonal(K))


def _trace_jitter(diagonal: np.ndarray) -> float:
    return 1e-10 * float(diagonal.sum()) / diagonal.size


def _factor_matrices(
    basis: BasisSystem,
    P: LinearOpSpec,
    B: LinearOpSpec,
    spec: KernelSpec,
    L: LinearOpSpec,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The (x, xi) factor C, and the (y, eta) factors M and M_L for the given L."""
    nodes, w = basis.quad_nodes, basis.quad_weights
    diff = nodes[:, None] - nodes[None, :]
    k1 = gaussian_kernel(diff, spec.h)

    C = kernel_gram(w, P.apply_at(basis, nodes), k1)
    C = (C + C.T) / 2
    if spec.include_boundary:
        b_vals = B.apply_at(basis, np.array(basis.interval))
        bc = b_vals.T @ b_vals
        C = C + (bc + bc.T) / 2

    phi = basis.quad_values()
    M = kernel_gram(w, phi, k1)
    M = (M + M.T) / 2
    if L.kind == "identity":
        return C, (M, M)
    return C, (M, kernel_gram(w, phi, L.apply_kernel_grid(diff, spec.h, k1)))


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
    """Assemble the factors of K and K_L together with provenance metadata.

    K uses the identity as output operator and is symmetric PSD by
    construction; K_L applies L to the (y, eta) kernel factor.
    """
    C, (M, M_L) = _factor_matrices(basis, P, B, spec, L)
    return KernelMatrices(C=C, M=M, M_L=M_L, provenance=kernel_provenance(basis, P, B, L, spec))



def save_kernel_matrices(km: KernelMatrices, path: str) -> None:
    """Write C, M, M_L and the provenance header to an .npz file.

    The file is written under a temporary name in the same directory and
    renamed into place, so a reader never sees a partial cache.
    """
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        **{name: getattr(km, name) for name in _FACTORS},
        provenance=json.dumps(km.provenance, sort_keys=True),
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
    """Read kernel factors written by :func:`save_kernel_matrices`.

    Raises DataError naming the file when it is not such a cache: not an
    .npz archive, truncated or corrupt, in the older K/K_L layout, or
    holding factors that are not p x p for the p its provenance records.
    """
    unreadable = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, zlib.error)
    with contextlib.ExitStack() as stack:
        try:
            # np.load leaves a file it opened itself open when the zip is truncated
            archive = np.load(stack.enter_context(open(path, "rb")), allow_pickle=False)
        except unreadable as exc:
            raise DataError(f"kernel cache {path} is not a readable .npz archive: {exc}") from exc
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise DataError(f"kernel cache {path} is not an .npz archive")
        stack.enter_context(archive)
        names = set(archive.files)
        if {"K", "K_L"} <= names:
            raise DataError(
                f"kernel cache {path} holds dense K/K_L matrices, a layout this version "
                "no longer reads; delete it to rebuild the factored cache"
            )
        missing = sorted({*_FACTORS, "provenance"} - names)
        if missing:
            raise DataError(f"kernel cache {path} lacks {', '.join(missing)}")
        try:
            factors = {name: archive[name] for name in _FACTORS}
            provenance = json.loads(str(archive["provenance"]))
        except unreadable as exc:
            raise DataError(f"kernel cache {path} is corrupt: {exc}") from exc
    p = provenance.get("p") if isinstance(provenance, dict) else None
    shapes = [factors[name].shape for name in _FACTORS]
    if not isinstance(p, int) or any(shape != (p, p) for shape in shapes):
        raise DataError(
            f"kernel cache {path} holds factors C, M, M_L of shapes {shapes}, "
            f"expected p x p for the recorded p = {p}"
        )
    return KernelMatrices(**factors, provenance=provenance)
