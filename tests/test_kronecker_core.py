"""Property test: the Kronecker-factored ridge core against a dense LU oracle.

The oracle forms the (n*p) x p^2 design index by index and LU-solves the
normal equations with K + psd_jitter(K) I, as the factored core must match.
Draws cover n < p and n*p < p^2, every operator kind in the L role and
both boundary settings.
"""

import numpy as np
import pytest
from scipy.linalg import eigh, lu_factor, lu_solve

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diffreg import (  # noqa: E402
    DataSet,
    KernelSpec,
    RidgeSystem,
    assemble,
    identity_op,
    make_cosine_basis,
    neg_laplacian,
    smoothing_matrix,
    spectrum_diag,
)
from diffreg.kernels import OP_KINDS, LinearOpSpec, psd_jitter  # noqa: E402

from conftest import design_by_loops  # noqa: E402

EPS = np.finfo(float).eps


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 12),
    p=st.integers(1, 6),
    h=st.floats(0.02, 0.5),
    L_kind=st.sampled_from(OP_KINDS),
    L_param=st.floats(0.5, 3.0),
    include_boundary=st.booleans(),
    log_lam=st.floats(-3.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kronecker_core_matches_dense_oracle(
    n, p, h, L_kind, L_param, include_boundary, log_lam, seed
):
    basis = make_cosine_basis(p, 101)
    spec = KernelSpec(h=h, include_boundary=include_boundary)
    km = assemble(basis, neg_laplacian(), identity_op(), LinearOpSpec(L_kind, L_param), spec)
    rng = np.random.default_rng(seed)
    U, F = rng.uniform(-1, 1, (n, p)), rng.uniform(-1, 1, (n, p))
    data = DataSet(U=U, F=F, basis=basis)
    lam = 10.0**log_lam
    system = RidgeSystem(data, km)
    # Gram eigenvalues at roundoff level read 0, so rank n*p < p^2 leaves zeros
    assert system.s2.min() >= 0.0 and np.count_nonzero(system.s2) <= n * p

    A = design_by_loops(U, km.K_L)
    K_eff = (km.K + km.K.T) / 2 + psd_jitter(km.K) * np.eye(p * p)
    gram = A.T @ A
    normal = gram + n * lam * K_eff
    lu = lu_factor(normal)
    c_oracle = lu_solve(lu, A.T @ F.flatten(order="F"))
    # the oracle's own forward error grows with the condition number; an
    # extended-precision solve showed the factored core to be the closer one
    tol = 1e-10 + EPS * np.linalg.cond(normal)

    c_hat = system.solve(lam)
    assert np.max(np.abs(c_hat - c_oracle)) <= tol * np.max(np.abs(c_oracle))
    fitted = (A @ c_oracle).reshape(n, p, order="F")
    assert np.max(np.abs(system.fitted(c_hat) - fitted)) <= tol * np.max(np.abs(F))
    assert abs(system.trace(lam) - np.trace(lu_solve(lu, gram))) <= tol * n * p

    S = smoothing_matrix(data, km, lam, system=system)
    eigs = np.linalg.eigvalsh(S.to_dense())
    assert eigs.min() >= -tol and eigs.max() < 1.0
    cols = rng.standard_normal((n * p, 2))
    smoothed = A @ lu_solve(lu, A.T @ cols)
    assert np.max(np.abs(S.apply(cols) - smoothed)) <= tol * np.max(np.abs(cols))
    weights = rng.standard_normal((3, n))
    weighted = np.stack([(w[:, None] * F).flatten(order="F") for w in weights], axis=1)
    smoothed = A @ lu_solve(lu, A.T @ weighted)
    norms = np.sum(smoothed**2, axis=0)
    assert np.max(np.abs(S.smoothed_sq_norms(F, weights) - norms)) <= tol * np.sum(weighted**2)

    gammas = np.sort(np.maximum(eigh(gram / n, K_eff, eigvals_only=True), 0.0))[::-1]
    got = spectrum_diag(data, km, p * p, system=system)
    assert np.max(np.abs(got - gammas)) <= tol * gammas[0]
