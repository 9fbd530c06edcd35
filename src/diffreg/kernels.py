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
2 p^4).  The dense p^2 x p^2 forms, K, K_L and the jittered penalty of
the ridge solve, live in the test oracle ``tools/dense.py``; the ``K`` and
``K_L`` properties remain only for the benchmark's tests.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem
from .errors import DataError, SingularSystemError
from .fileio import UNREADABLE, open_npz, write_atomic

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
        self, diff: np.ndarray, h: float, k1: np.ndarray | None = None, sq: np.ndarray | None = None
    ) -> np.ndarray:
        """[L_y K1](y, eta) on a grid, given diff = y - eta elementwise.

        Uses the analytic derivatives of the Gaussian; the first argument
        (rows of ``diff``) is the differentiated one.  ``k1`` and ``sq``,
        when given, are ``gaussian_kernel(diff, h)`` and ``diff**2`` already
        evaluated; the -d^2/dx^2 part is written over ``sq``.
        """
        k1 = gaussian_kernel(diff, h) if k1 is None else k1
        sq = np.square(diff, out=np.empty(np.shape(diff))) if sq is None else sq
        return self._combine(
            lambda: k1,
            lambda: -diff / h**2 * k1,
            # (h^2 - sq) / h^4 * k1, in place
            lambda: np.multiply(np.divide(np.subtract(h**2, sq, out=sq), h**4, out=sq), k1, out=sq),
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
        # the kernel's second derivative divides by h^4, which must not overflow or vanish
        h = float(self.h)
        if not (h > 0 and 0 < h * h * h * h < np.inf):
            raise ValueError(
                f"bandwidth h must be positive with h^4 finite and nonzero, got {self.h}"
            )


#: K1 is exactly 0 where its exponent is below this: exp there is below 1e-304,
#: and exp's subnormal results, and products with them, take a slow path on x86
EXP_CUTOFF = -700.0


def gaussian_kernel(diff: np.ndarray, h: float, sq: np.ndarray | None = None) -> np.ndarray:
    """Density-normalized Gaussian kernel evaluated at pairwise differences.

    Exactly 0 where the exponent -diff^2 / (2 h^2) is below EXP_CUTOFF.
    ``sq``, when given, is ``diff**2`` already evaluated, and ``diff`` is unread.
    """
    sq = np.square(np.asarray(diff, dtype=float)) if sq is None else sq
    # one new array, worked in place; sq / -(2 h^2) equals -sq / (2 h^2) bit for bit
    k1 = np.divide(sq, -2.0 * h * h, out=np.empty(np.shape(sq)))
    below = k1 < EXP_CUTOFF
    np.exp(np.maximum(k1, EXP_CUTOFF, out=k1), out=k1)
    k1 /= np.sqrt(2.0 * np.pi * h * h)
    k1[below] = 0.0
    return k1[()]  # a scalar for a scalar diff


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
        for name in _FACTORS:
            # a copy, so the caller's array keeps its own flags
            factor = np.array(getattr(self, name), dtype=float)
            if not np.isfinite(factor).all():
                raise ValueError(f"kernel factor {name} has a non-finite entry")
            factor.flags.writeable = False
            object.__setattr__(self, name, factor)
        shapes = {self.C.shape, self.M.shape, self.M_L.shape}
        if len(shapes) != 1 or self.C.ndim != 2 or self.C.shape[0] != self.C.shape[1]:
            raise ValueError("C, M and M_L must be square with identical shape")

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def K(self) -> np.ndarray:
        """The dense p^2 x p^2 Gram matrix C kron M.

        Only ``perfbench/tests`` calls it; it goes when those tests form the
        np.kron of the factors themselves, as ``tools/dense.py`` does.
        """
        return np.kron(self.C, self.M)

    @property
    def K_L(self) -> np.ndarray:
        """The dense p^2 x p^2 Gram matrix C kron M_L; kept for the same reason as ``K``."""
        return np.kron(self.C, self.M_L)

    @property
    def jitters(self) -> tuple[float, float]:
        """(eps_C, eps_M), the jitters added to C and M: 1e-10 * trace / p of each."""
        eps_C, eps_M = (1e-10 * float(np.trace(factor)) / self.p for factor in (self.C, self.M))
        return eps_C, eps_M

    @functools.cached_property
    def whitening(self) -> tuple[np.ndarray, ...]:
        """Kernel-only factors of the rotated ridge design: (P_C, R_C, a, H, T_M).

        C = Q_C diag(l_C) Q_C' and M = Q_M diag(l_M) Q_M' (both symmetrized)
        diagonalize the penalty (C + eps_C I) kron (M + eps_M I), with whitening
        weights D_C = diag(l_C + eps_C)^{-1/2} and D_M = diag(l_M + eps_M)^{-1/2}.
        The M-side eigenproblem H_w'H_w = V_M diag(a) V_M' of H_w = M_L Q_M D_M
        is solved here, once per kernel, and V_M is folded into H = H_w V_M and
        T_M = Q_M D_M V_M.  A dataset's side is U P_C, with P_C = Q_C diag(l_C) D_C
        and R_C = Q_C D_C.
        Raises SingularSystemError when C or M is not positive definite after
        its jitter, and ValueError when H_w'H_w overflows; a raised error is
        not cached, so every use raises.
        """
        spectra = []
        for name, eps in zip(("C", "M"), self.jitters):
            factor = getattr(self, name)
            eigs, vecs = np.linalg.eigh((factor + factor.T) / 2)
            if eigs.min() + eps <= 0:
                cond = float(np.abs(eigs).max() / max(np.abs(eigs).min(), 1e-300))
                raise SingularSystemError(
                    f"kernel factor {name} is not positive definite after jitter", cond
                )
            spectra.append((eigs, vecs * (eigs + eps) ** -0.5))
        (l_C, R_C), (_, QD_M) = spectra
        H_w = self.M_L @ QD_M
        with np.errstate(over="ignore", invalid="ignore"):
            gram = H_w.T @ H_w
        # eigh of a non-finite Gram raises LinAlgError at small p and returns NaN at larger p
        if not np.isfinite(gram).all():
            raise ValueError("kernel factor M_L is too large: the whitened Gram H_w'H_w overflows")
        a, V_M = np.linalg.eigh(gram)
        return R_C * l_C, R_C, a, H_w @ V_M, QD_M @ V_M


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
    # each n_quad^2 grid is a fresh allocation, which costs more to touch than to fill:
    # diff is squared in place unless L's d/dx reads it, and L's grid is written over its square
    sq = np.square(diff, out=None if L.kind == "first_derivative" else diff)
    k1 = gaussian_kernel(diff, spec.h, sq)

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
    return C, (M, kernel_gram(w, phi, L.apply_kernel_grid(diff, spec.h, k1, sq)))


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
        "jitter_policy": "1e-10 * trace(F) / p added to each factor F of K = C kron M",
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
    # a factor that overflows fails KernelMatrices' finiteness check, without a warning
    with np.errstate(all="ignore"):
        C, (M, M_L) = _factor_matrices(basis, P, B, spec, L)
    try:
        return KernelMatrices(C=C, M=M, M_L=M_L, provenance=kernel_provenance(basis, P, B, L, spec))
    except ValueError as exc:
        where = f"basis interval {list(basis.interval)} with bandwidth h = {spec.h:g}"
        raise ValueError(f"{exc} on the {where}") from exc


def save_kernel_matrices(km: KernelMatrices, path: str) -> None:
    """Write C, M, M_L and the provenance header to an uncompressed .npz file.

    The file is written with :func:`~diffreg.fileio.write_atomic`, so a
    reader never sees a partial cache.
    """
    buf = io.BytesIO()
    provenance = json.dumps(km.provenance, sort_keys=True)
    np.savez(buf, **{name: getattr(km, name) for name in _FACTORS}, provenance=provenance)
    write_atomic(path, buf.getvalue())


def load_kernel_matrices(path: str) -> KernelMatrices:
    """Read kernel factors written by :func:`save_kernel_matrices`.

    Raises DataError naming the file when it is not such a cache: not an
    .npz archive, truncated or corrupt, in the older K/K_L layout, or
    holding factors that are not finite p x p matrices for the recorded p.
    """
    with contextlib.ExitStack() as stack:
        try:
            archive = stack.enter_context(open_npz(path))
        except UNREADABLE as exc:
            raise DataError(f"kernel cache {path} is not a readable .npz archive: {exc}") from exc
        if archive is None:
            raise DataError(f"kernel cache {path} is not an .npz archive")
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
        except UNREADABLE as exc:
            raise DataError(f"kernel cache {path} is corrupt: {exc}") from exc
    p = provenance.get("p") if isinstance(provenance, dict) else None
    shapes = [factors[name].shape for name in _FACTORS]
    if not isinstance(p, int) or any(shape != (p, p) for shape in shapes):
        raise DataError(
            f"kernel cache {path} holds factors C, M, M_L of shapes {shapes}, "
            f"expected p x p for the recorded p = {p}"
        )
    try:
        return KernelMatrices(**factors, provenance=provenance)
    except ValueError as exc:
        raise DataError(f"kernel cache {path} is unusable: {exc}") from exc
