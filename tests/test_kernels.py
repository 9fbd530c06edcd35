"""Tests for kernel assembly against independent quadrature oracles."""

import json
import zipfile

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
from diffreg import kernels
from diffreg.kernels import LinearOpSpec, gaussian_kernel, kernel_gram

import dense


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
    K = dense.K(assemble(basis, identity_op(), identity_op(), identity_op(), spec))
    oracle = trapz_double_integral(
        lambda s, t: gaussian_kernel(s - t, h) * phi(1, s) * phi(1, t)
    )
    assert K.shape == (1, 1)
    assert abs(K[0, 0] - oracle**2) < 1e-6 * abs(oracle**2)


def test_assembled_K_is_exactly_symmetric():
    basis = make_cosine_basis(p=4, n_quad=101)
    K = dense.K(assemble(basis, neg_laplacian(), identity_op(), identity_op(), KernelSpec(h=0.2)))
    assert np.array_equal(K, K.T)


def test_large_bandwidth_flattens_interior():
    # h >> 1 makes K1 nearly constant and cosines integrate it to ~0
    basis = make_cosine_basis(p=3, n_quad=101)
    spec = KernelSpec(h=10.0, include_boundary=False)
    K = dense.K(assemble(basis, identity_op(), identity_op(), identity_op(), spec))
    assert np.max(np.abs(K)) < 1e-3


def test_identity_L_reproduces_K():
    basis = make_cosine_basis(p=3, n_quad=101)
    spec = KernelSpec(h=0.2)
    km = assemble(basis, neg_laplacian(), identity_op(), identity_op(), spec)
    K, K_L = dense.K(km), dense.K_L(km)
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
    K, K_L = dense.K(km), dense.K_L(km)
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
    K1 = dense.K(assemble(make_cosine_basis(p=4, n_quad=n1), *ops, spec))
    K2 = dense.K(assemble(make_cosine_basis(p=4, n_quad=n2), *ops, spec))
    assert np.max(np.abs(K1 - K2)) < 1e-8 * np.max(np.abs(K2))


def test_boundary_contribution_closed_form():
    # With B identity on {0, 1}: phi_k(0) phi_k'(0) + phi_k(1) phi_k'(1)
    # collapses to 2 * (1 + (-1)^{k + k'}) times the mollifier factor
    basis = make_cosine_basis(p=3, n_quad=101)
    spec_on = KernelSpec(h=0.2, include_boundary=True)
    spec_off = KernelSpec(h=0.2, include_boundary=False)
    P = neg_laplacian()
    K_on = dense.K(assemble(basis, P, identity_op(), identity_op(), spec_on))
    K_off = dense.K(assemble(basis, P, identity_op(), identity_op(), spec_off))
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
    K = dense.K(km)
    eigs = np.linalg.eigvalsh((K + K.T) / 2)
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
    # h^4 overflows at 1e300 and vanishes at 1e-170; a numpy scalar must not warn either
    for h in (0.0, -1.0, np.nan, np.inf, 1e300, 1e-170, 1e-300, np.float64(1e300)):
        with pytest.raises(ValueError, match="bandwidth h"):
            KernelSpec(h=h)
    assert KernelSpec(h=1e-70).h == 1e-70


def test_a_kernel_that_overflows_on_its_basis_is_rejected_without_warnings():
    basis = make_cosine_basis(4, 41, (0.0, 1e-320))
    with pytest.raises(ValueError, match=r"factor C has a non-finite entry on the basis "
                       r"interval \[0.0, 1e-320\] with bandwidth h = 0.01"):
        assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.01))


L_KINDS = [LinearOpSpec("identity"), LinearOpSpec("neg_laplacian"),
           LinearOpSpec("neg_laplacian_minus_const", 2.0), LinearOpSpec("scaled_neg_laplacian", 0.5),
           LinearOpSpec("first_derivative")]


@pytest.mark.parametrize("p", [4, 10])
@pytest.mark.parametrize("h", [0.001, 0.01, 0.2])
@pytest.mark.parametrize("L", L_KINDS, ids=lambda L: L.kind)
def test_assembled_factors_equal_the_plain_exp_formula_bit_for_bit(p, h, L):
    # at h = 0.001 most of the grid's exponents are below the cutoff, at 0.2 none is
    basis = make_cosine_basis(p, 20 * p + 1)
    want = dense.plain_exp_factors(basis, neg_laplacian(), identity_op(), h, L)
    km = assemble(basis, neg_laplacian(), identity_op(), L, KernelSpec(h=h))
    for name, factor in zip(("C", "M", "M_L"), want):
        assert getattr(km, name).tobytes() == factor.tobytes(), name


def test_gaussian_kernel_is_zero_below_the_cutoff_and_never_subnormal():
    h = 0.01
    diff = np.linspace(-1.0, 1.0, 40001)
    k1 = gaussian_kernel(diff, h)
    exponent = -(diff**2) / (2.0 * h * h)
    assert np.count_nonzero(exponent < -745) > 0  # where exp underflows to 0
    assert np.count_nonzero((exponent > -745) & (exponent < -708)) > 0  # where it is subnormal
    assert np.all(k1[exponent < kernels.EXP_CUTOFF] == 0.0)
    assert np.all(k1[exponent >= kernels.EXP_CUTOFF] >= np.finfo(float).tiny)
    kept = exponent >= kernels.EXP_CUTOFF
    with np.errstate(under="ignore"):
        assert np.array_equal(k1[kept], (np.exp(exponent) / np.sqrt(2.0 * np.pi * h * h))[kept])


def test_the_kernel_and_its_operator_grids_take_a_scalar():
    for diff, zero in ((0.001, False), (1.0, True)):
        value = gaussian_kernel(diff, 0.01)
        assert np.ndim(value) == 0 and isinstance(value, np.floating)
        assert (value == 0.0) == zero
        assert value == gaussian_kernel(np.array([diff]), 0.01)[0]
        for L in L_KINDS:
            assert L.apply_kernel_grid(diff, 0.01) == L.apply_kernel_grid(np.array([diff]), 0.01)[0]


def test_save_load_round_trip(tmp_path):
    basis = make_cosine_basis(p=3, n_quad=101)
    km = assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.2))
    path = str(tmp_path / "kernels.npz")
    save_kernel_matrices(km, path)
    loaded = load_kernel_matrices(path)
    for name in ("C", "M", "M_L"):
        assert np.array_equal(getattr(loaded, name), getattr(km, name))
    assert loaded.provenance == km.provenance


def test_a_compressed_cache_loads_as_the_uncompressed_one(tmp_path):
    basis = make_cosine_basis(p=3, n_quad=101)
    km = assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.2))
    plain, packed = str(tmp_path / "plain.npz"), str(tmp_path / "packed.npz")
    save_kernel_matrices(km, plain)
    np.savez_compressed(packed, C=km.C, M=km.M, M_L=km.M_L,
                        provenance=json.dumps(km.provenance, sort_keys=True))
    with zipfile.ZipFile(plain) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    a, b = load_kernel_matrices(plain), load_kernel_matrices(packed)
    for name in ("C", "M", "M_L"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.provenance == b.provenance


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
