"""Property test: the Kronecker-factored ridge core against a dense LU oracle.

The oracle forms the (n*p) x p^2 design index by index and LU-solves the
normal equations with the penalty K_eps = (C + eps_C I) kron (M + eps_M I), as
the factored core must match.
Each draw checks three lambdas, every row of one batched call against its
own oracle.  Draws cover n < p and n*p < p^2, every operator kind in the L
role and both boundary settings.
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
    spectrum_diag,
)
from diffreg.kernels import OP_KINDS, LinearOpSpec  # noqa: E402

import dense  # noqa: E402

EPS = np.finfo(float).eps


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 12),
    p=st.integers(1, 6),
    h=st.floats(0.02, 0.5),
    L_kind=st.sampled_from(OP_KINDS),
    L_param=st.floats(0.5, 3.0),
    include_boundary=st.booleans(),
    log_lams=st.tuples(*[st.floats(-3.0, 4.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kronecker_core_matches_dense_oracle(
    n, p, h, L_kind, L_param, include_boundary, log_lams, seed
):
    basis = make_cosine_basis(p, 101)
    spec = KernelSpec(h=h, include_boundary=include_boundary)
    km = assemble(basis, neg_laplacian(), identity_op(), LinearOpSpec(L_kind, L_param), spec)
    rng = np.random.default_rng(seed)
    U, F = rng.uniform(-1, 1, (n, p)), rng.uniform(-1, 1, (n, p))
    data = DataSet(U=U, F=F, basis=basis)
    lams = 10.0 ** np.array(log_lams)
    system = RidgeSystem(data, km)
    # Gram eigenvalues at roundoff level read 0, so rank n*p < p^2 leaves zeros
    assert system.s2.min() >= 0.0 and np.count_nonzero(system.s2) <= n * p

    A = dense.design_by_loops(U, dense.K_L(km))
    K_eff = dense.K_eps(km)
    gram = A.T @ A
    # one call per quantity serves the whole lambda grid, one row per lambda
    c_hats = system.solve(lams)
    fitteds = system.fitted(c_hats)
    traces = system.trace(lams)
    assert c_hats.shape == (3, p * p) and fitteds.shape == (3, n, p) and traces.shape == (3,)
    cols = rng.standard_normal((n * p, 2))
    weights = rng.standard_normal((3, n))
    weighted = np.stack([(w[:, None] * F).flatten(order="F") for w in weights], axis=1)
    tols = []
    for lam, c_hat, fitted_hat, trace in zip(lams, c_hats, fitteds, traces):
        normal = gram + n * lam * K_eff
        lu = lu_factor(normal)
        c_oracle = lu_solve(lu, A.T @ F.flatten(order="F"))
        # the oracle's own forward error grows with the condition number; an
        # extended-precision solve showed the factored core to be the closer one
        tol = 1e-10 + EPS * np.linalg.cond(normal)
        tols.append(tol)

        assert np.max(np.abs(c_hat - c_oracle)) <= tol * np.max(np.abs(c_oracle))
        fitted = (A @ c_oracle).reshape(n, p, order="F")
        assert np.max(np.abs(fitted_hat - fitted)) <= tol * np.max(np.abs(F))
        assert abs(trace - np.trace(lu_solve(lu, gram))) <= tol * n * p

        eigs = np.linalg.eigvalsh(dense.smoother(system, lam))
        assert eigs.min() >= -tol and eigs.max() < 1.0
        smoothed = A @ lu_solve(lu, A.T @ cols)
        gap = np.max(np.abs(dense.smooth(system, lam, cols) - smoothed))
        assert gap <= tol * np.max(np.abs(cols))
        smoothed = A @ lu_solve(lu, A.T @ weighted)
        norms = np.sum(smoothed**2, axis=0)
        got = system.smoothed_sq_norms(lam, F, weights)
        assert np.max(np.abs(got - norms)) <= tol * np.sum(weighted**2)

    gammas = np.sort(np.maximum(eigh(gram / n, K_eff, eigvals_only=True), 0.0))[::-1]
    got = spectrum_diag(data, km, p * p)
    assert np.max(np.abs(got - gammas)) <= tols[0] * gammas[0]
