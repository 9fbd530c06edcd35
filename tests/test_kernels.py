"""Tests for kernel assembly against independent quadrature oracles."""

import numpy as np
import pytest

from diffreg import (
    KernelMatrices,
    KernelSpec,
    ParamFamily,
    assemble,
    first_derivative,
    identity_op,
    load_kernel_matrices,
    make_cosine_basis,
    neg_laplacian,
    save_kernel_matrices,
    scaled_neg_laplacian,
)
from diffreg.kernels import LinearOpSpec, gaussian_kernel, kernel_gram


def trapz_rule(n, a=0.0, b=1.0):
    x = np.linspace(a, b, n)
    w = np.full(n, (b - a) / (n - 1))
    w[0] /= 2
    w[-1] /= 2
    return x, w


def trapz_double_integral(fn, n=801):
    """Brute-force int int fn(s, t) ds dt on [0,1]^2 by tensor trapezoid.

    Richardson-extrapolates grids n and 2n-1 to kill the O(h^2) term, so
    the oracle is converged well past the tolerances it backs.
    """

    def level(m):
        x, w = trapz_rule(m)
        return float(w @ fn(x[:, None], x[None, :]) @ w)

    coarse, fine = level(n), level(2 * n - 1)
    return (4.0 * fine - coarse) / 3.0


def phi(k, x):
    return np.sqrt(2.0) * np.cos(k * np.pi * x)


def test_single_entry_against_brute_force_quadrature():
    # p=1, P identity, no boundary: the lone entry is the squared mollifier
    # integral (int int K1(s,t) phi_1(s) phi_1(t) ds dt)^2
    h = 0.2
    basis = make_cosine_basis(p=1, n_quad=101)
    spec = KernelSpec(h=h, include_boundary=False)
    K = assemble(basis, identity_op(), identity_op(), identity_op(), spec).K
    oracle = trapz_double_integral(
        lambda s, t: gaussian_kernel(s - t, h) * phi(1, s) * phi(1, t)
    )
    assert K.shape == (1, 1)
    assert abs(K[0, 0] - oracle**2) < 1e-6 * abs(oracle**2)


def test_assembled_K_is_exactly_symmetric():
    basis = make_cosine_basis(p=4, n_quad=101)
    K = assemble(basis, neg_laplacian(), identity_op(), identity_op(), KernelSpec(h=0.2)).K
    assert np.array_equal(K, K.T)


def test_large_bandwidth_flattens_interior():
    # h >> 1 makes K1 nearly constant and cosines integrate it to ~0
    basis = make_cosine_basis(p=3, n_quad=101)
    spec = KernelSpec(h=10.0, include_boundary=False)
    K = assemble(basis, identity_op(), identity_op(), identity_op(), spec).K
    assert np.max(np.abs(K)) < 1e-3


def test_identity_L_reproduces_K():
    basis = make_cosine_basis(p=3, n_quad=101)
    spec = KernelSpec(h=0.2)
    km = assemble(basis, neg_laplacian(), identity_op(), identity_op(), spec)
    K, K_L = km.K, km.K_L
    assert np.max(np.abs(K_L - K)) < 1e-12 * np.max(np.abs(K))


def test_neg_laplacian_kernel_action_vs_finite_differences():
    h = 0.2
    rng = np.random.default_rng(0)
    y = rng.uniform(0, 1, 40)
    eta = rng.uniform(0, 1, 40)
    diff = y[:, None] - eta[None, :]
    analytic = neg_laplacian().apply_kernel_grid(diff, h)
    eps = 1e-4
    fd = -(
        gaussian_kernel(diff + eps, h) - 2 * gaussian_kernel(diff, h) + gaussian_kernel(diff - eps, h)
    ) / eps**2
    assert np.max(np.abs(analytic - fd)) < 1e-4 * np.max(np.abs(analytic))


def test_neg_laplacian_factor_against_brute_force():
    # p=1: the (y, eta) factor of K_L is int int (-d2/dy2 K1) phi_1 phi_1
    h = 0.2
    basis = make_cosine_basis(p=1, n_quad=101)
    spec = KernelSpec(h=h, include_boundary=False)
    km = assemble(basis, identity_op(), identity_op(), neg_laplacian(), spec)
    K, K_L = km.K, km.K_L
    factor = K_L[0, 0] / np.sqrt(K[0, 0])  # C * M_L over sqrt(C * M) with C = M
    oracle = trapz_double_integral(
        lambda s, t: neg_laplacian().apply_kernel_grid(s - t, h) * phi(1, s) * phi(1, t)
    )
    assert abs(factor - oracle) < 1e-6 * abs(oracle)


def test_integration_by_parts_cross_check():
    # For eta away from the boundary, int -d2/dy2 K1(y, eta) phi_j(y) dy
    # matches (j*pi)^2 int K1(y, eta) phi_j(y) dy: the boundary terms of
    # two integrations by parts are Gaussian-small in the interior.
    h = 0.01
    basis = make_cosine_basis(p=3, n_quad=401)
    y, w = basis.quad_nodes, basis.quad_weights
    etas = np.linspace(0.1, 0.9, 33)
    diff = y[:, None] - etas[None, :]
    lhs = (w[:, None] * neg_laplacian().apply_kernel_grid(diff, h)).T @ basis.quad_values()
    rhs = (w[:, None] * gaussian_kernel(diff, h)).T @ basis.quad_values()
    for j in range(3):
        scale = ((j + 1) * np.pi) ** 2
        rel = np.max(np.abs(lhs[:, j] - scale * rhs[:, j])) / np.max(np.abs(scale * rhs[:, j]))
        assert rel < 1e-3


def test_kernel_gram_invariant_under_node_relabeling():
    basis = make_cosine_basis(p=3, n_quad=101)
    h = 0.05
    nodes, w = basis.quad_nodes, basis.quad_weights
    vals = basis.quad_values()
    grid = gaussian_kernel(nodes[:, None] - nodes[None, :], h)
    M = kernel_gram(w, vals, grid)
    perm = np.random.default_rng(1).permutation(len(nodes))
    grid_p = gaussian_kernel(nodes[perm][:, None] - nodes[perm][None, :], h)
    M_p = kernel_gram(w[perm], vals[perm], grid_p)
    assert np.max(np.abs(M - M_p)) < 1e-13 * np.max(np.abs(M))


@pytest.mark.parametrize(
    "h,n1,n2",
    [(0.2, 201, 402), (0.05, 201, 402), (0.01, 401, 801)],
)
def test_quadrature_convergence_under_doubling(h, n1, n2):
    spec = KernelSpec(h=h)
    ops = (neg_laplacian(), identity_op(), identity_op())
    K1 = assemble(make_cosine_basis(p=4, n_quad=n1), *ops, spec).K
    K2 = assemble(make_cosine_basis(p=4, n_quad=n2), *ops, spec).K
    assert np.max(np.abs(K1 - K2)) < 1e-8 * np.max(np.abs(K2))


def test_boundary_contribution_closed_form():
    # With B identity on {0, 1}: phi_k(0) phi_k'(0) + phi_k(1) phi_k'(1)
    # collapses to 2 * (1 + (-1)^{k + k'}) times the mollifier factor
    basis = make_cosine_basis(p=3, n_quad=101)
    spec_on = KernelSpec(h=0.2, include_boundary=True)
    spec_off = KernelSpec(h=0.2, include_boundary=False)
    P = neg_laplacian()
    K_on = assemble(basis, P, identity_op(), identity_op(), spec_on).K
    K_off = assemble(basis, P, identity_op(), identity_op(), spec_off).K
    M = kernel_gram(
        basis.quad_weights,
        basis.quad_values(),
        gaussian_kernel(basis.quad_nodes[:, None] - basis.quad_nodes[None, :], 0.2),
    )
    ks = np.arange(1, 4)
    expected = 2.0 * (1.0 + (-1.0) ** (ks[:, None] + ks[None, :]))
    assert np.max(np.abs((K_on - K_off) - np.kron(expected, (M + M.T) / 2))) < 1e-12


def test_assembled_K_is_psd():
    basis = make_cosine_basis(p=10, n_quad=201)
    km = assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.01))
    eigs = np.linalg.eigvalsh((km.K + km.K.T) / 2)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_test_family_is_the_kernel_neg_laplacian():
    basis = make_cosine_basis(p=6, n_quad=101, interval=(0.5, 2.0))
    ks = np.arange(1, 7)
    L = 1.5
    freq = basis.frequencies
    np.testing.assert_allclose(freq, ks * np.pi / L, rtol=1e-15)
    np.testing.assert_array_equal(ParamFamily.scaled_neg_laplacian(basis).multipliers, freq**2)
    # -laplacian phi_k = (k pi / L)^2 phi_k: the family's D0 is the kernel's operator
    quad = basis.quad_values()
    scale = np.sqrt(2 / L) * freq[-1] ** 2
    lap = neg_laplacian().apply_at(basis, basis.quad_nodes)
    assert np.max(np.abs(lap - quad * freq**2)) < 1e-13 * scale
    x = np.linspace(0.5, 2.0, 13)
    explicit = np.sqrt(2.0 / L) * np.cos(np.outer(x - 0.5, ks) * np.pi / L)
    np.testing.assert_array_equal(basis.values(x), explicit)


def test_boundary_action_on_cosine_basis():
    basis = make_cosine_basis(p=5, n_quad=101, interval=(0.5, 2.0))
    ks = np.arange(1, 6)
    L = 1.5
    ab = np.array(basis.interval)
    ends = basis.values(ab)
    np.testing.assert_allclose(ends[0], np.full(5, np.sqrt(2 / L)), rtol=1e-14)
    np.testing.assert_allclose(ends[1], np.sqrt(2 / L) * (-1.0) ** ks, rtol=1e-14)
    lap = neg_laplacian().apply_at(basis, ab)
    np.testing.assert_allclose(lap, (ks * np.pi / L) ** 2 * ends, rtol=1e-13)
    # sin(k pi (x - a) / L) vanishes at both ends
    scale = np.sqrt(2 / L) * 5 * np.pi / L
    assert np.max(np.abs(first_derivative().apply_at(basis, ab))) < 1e-14 * scale
    np.testing.assert_allclose(scaled_neg_laplacian(0.7).apply_at(basis, ab), 0.7 * lap, rtol=1e-15)


def test_first_derivative_kernel_action():
    h = 0.3
    rng = np.random.default_rng(2)
    diff = rng.uniform(-1, 1, (20, 20))
    eps = 1e-5
    fd = (gaussian_kernel(diff + eps, h) - gaussian_kernel(diff - eps, h)) / (2 * eps)
    analytic = first_derivative().apply_kernel_grid(diff, h)
    assert np.max(np.abs(analytic - fd)) < 1e-6 * np.max(np.abs(analytic))


def test_unknown_operator_kind_rejected():
    with pytest.raises(ValueError):
        LinearOpSpec("gradient_squared")


def test_kernel_spec_validation():
    for h in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="bandwidth h"):
            KernelSpec(h=h)




def test_save_load_round_trip(tmp_path):
    basis = make_cosine_basis(p=3, n_quad=101)
    km = assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.2))
    path = str(tmp_path / "kernels.npz")
    save_kernel_matrices(km, path)
    loaded = load_kernel_matrices(path)
    for name in ("C", "M", "M_L"):
        assert np.array_equal(getattr(loaded, name), getattr(km, name))
    assert loaded.provenance == km.provenance


def test_kernel_factors_are_read_only(tmp_path):
    basis = make_cosine_basis(p=3, n_quad=101)
    km = assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.2))
    path = str(tmp_path / "kernels.npz")
    save_kernel_matrices(km, path)
    for kernels in (km, load_kernel_matrices(path)):
        for name in ("C", "M", "M_L"):
            factor = getattr(kernels, name)
            with pytest.raises(ValueError, match="read-only"):
                factor[:] = 4 * factor
    # the factors are copies: the caller's arrays stay writeable and apart
    own = np.eye(2)
    km = KernelMatrices(C=own, M=own, M_L=own)
    own[0, 0] = 2.0
    assert own.flags.writeable and km.C[0, 0] == km.M[0, 0] == 1.0


def test_kernel_matrices_shape_check():
    with pytest.raises(ValueError):
        KernelMatrices(C=np.eye(2), M=np.eye(2), M_L=np.eye(3))


def test_kernel_factors_are_float_and_finite():
    km = KernelMatrices(C=[[2.0]], M=[[1]], M_L=[[3.0]])
    assert km.p == 1 and km.M.dtype == float
    for name in ("C", "M", "M_L"):
        factors = {"C": np.eye(2), "M": np.eye(2), "M_L": np.eye(2)}
        factors[name] = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match=f"kernel factor {name} has a non-finite entry"):
            KernelMatrices(**factors)
