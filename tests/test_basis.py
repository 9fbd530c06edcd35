"""Tests for the basis module: evaluation, quadrature, projection."""

import numpy as np
import pytest

from diffreg import (
    BasisSystem,
    DataSet,
    FuncVec,
    SingularSystemError,
    composite_gauss_legendre,
    evaluate,
    l2_inner,
    make_cosine_basis,
    project,
)

SQRT2 = np.sqrt(2.0)


def test_cosine_value_at_origin():
    basis = make_cosine_basis(p=1, n_quad=11)
    assert basis.values(np.array([0.0]))[0, 0] == pytest.approx(SQRT2, abs=1e-14)


def test_cosine_value_midpoint():
    basis = make_cosine_basis(p=2, n_quad=11)
    # phi_2(0.5) = sqrt(2) * cos(pi) = -sqrt(2)
    assert basis.values(np.array([0.5]))[0, 1] == pytest.approx(-SQRT2, abs=1e-14)


def test_gram_identity_default_rule():
    basis = make_cosine_basis(p=10, n_quad=201)
    dev = np.max(np.abs(basis.gram() - np.eye(10)))
    assert dev < 1e-10


def test_quadrature_weights_sum_and_ordering():
    nodes, weights = composite_gauss_legendre(201, (0.0, 1.0))
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > 0 and nodes[-1] < 1
    assert np.all(weights > 0)


@pytest.mark.parametrize("interval", [(0.0, 1.0), (6.3, 6.9)])
def test_quadrature_matches_scipy_roots_legendre(interval):
    # numpy's leggauss and scipy's roots_legendre agree up to rounding; on
    # [-1, 1] the measured gaps are 2.2e-16 in nodes and 1.4e-15 in weights
    roots_legendre = pytest.importorskip("scipy.special").roots_legendre
    a, b = interval
    for n_nodes in (*range(1, 11), 20, 200):  # panels of equal size
        count = min(n_nodes, 10)
        edges = np.linspace(a, b, n_nodes // count + 1)
        x, w = roots_legendre(count)
        panels = list(zip(edges, edges[1:]))
        ref_nodes = np.concatenate([(hi - lo) / 2 * (x + 1) + lo for lo, hi in panels])
        ref_weights = np.concatenate([w * (hi - lo) / 2 for lo, hi in panels])
        nodes, weights = composite_gauss_legendre(n_nodes, interval)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14 * max(abs(a), abs(b))
        assert np.max(np.abs(weights - ref_weights)) <= 1e-14 * (b - a)


def test_boundary_values_exact():
    p = 8
    basis = make_cosine_basis(p=p, n_quad=101)
    vals = basis.values(np.array(basis.interval))
    ks = np.arange(1, p + 1)
    assert np.array_equal(vals[0], np.full(p, SQRT2))
    assert np.array_equal(vals[1], SQRT2 * (-1.0) ** ks)


def test_scaled_interval_orthonormal():
    basis = make_cosine_basis(p=6, n_quad=151, interval=(6.3, 6.9))
    assert np.max(np.abs(basis.gram() - np.eye(6))) < 1e-10
    assert abs(basis.quad_weights.sum() - 0.6) < 1e-10


def test_project_recovers_basis_function():
    basis = make_cosine_basis(p=5, n_quad=201)
    x = np.linspace(0, 1, 201)
    y = SQRT2 * np.cos(3 * np.pi * x)
    coeffs = project(x, y, basis).coeffs
    expected = np.zeros(5)
    expected[2] = 1.0
    assert np.max(np.abs(coeffs - expected)) < 1e-8


def test_project_constant_is_orthogonal():
    basis = make_cosine_basis(p=5, n_quad=201)
    x = np.linspace(0, 1, 201)
    coeffs = project(x, np.ones_like(x), basis).coeffs
    assert np.max(np.abs(coeffs)) < 1e-8


def test_project_x_squared_matches_closed_form():
    # <x^2, phi_k> = 2*sqrt(2)*(-1)^k / (k*pi)^2 by two integrations by parts
    basis = make_cosine_basis(p=4, n_quad=201)
    x = np.linspace(0, 1, 201)
    coeffs = project(x, x**2, basis).coeffs
    ks = np.arange(1, 5)
    expected = 2 * SQRT2 * (-1.0) ** ks / (ks * np.pi) ** 2
    assert np.max(np.abs(coeffs - expected)) < 1e-6


def test_l2_inner_orthonormality_and_dot():
    basis = make_cosine_basis(p=2, n_quad=21)
    e1 = FuncVec(np.array([1.0, 0.0]), basis)
    e2 = FuncVec(np.array([0.0, 1.0]), basis)
    assert l2_inner(e1, e1) == 1.0
    assert l2_inner(e1, e2) == 0.0
    f = FuncVec(np.array([1.0, 2.0]), basis)
    g = FuncVec(np.array([3.0, -1.0]), basis)
    assert l2_inner(f, g) == 1.0


def test_l2_inner_rejects_mismatched_bases():
    f = FuncVec(np.zeros(2), make_cosine_basis(p=2, n_quad=21))
    g = FuncVec(np.zeros(3), make_cosine_basis(p=3, n_quad=21))
    with pytest.raises(ValueError):
        l2_inner(f, g)


@pytest.mark.parametrize("seed", range(5))
def test_parseval_against_quadrature(seed):
    rng = np.random.default_rng(seed)
    basis = make_cosine_basis(p=7, n_quad=151)
    f = FuncVec(rng.uniform(-1, 1, 7), basis)
    values = evaluate(f, basis.quad_nodes)
    integral = float(basis.quad_weights @ values**2)
    assert abs(integral - l2_inner(f, f)) < 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_project_evaluate_round_trip(seed):
    rng = np.random.default_rng(100 + seed)
    basis = make_cosine_basis(p=6, n_quad=151)
    coeffs = rng.uniform(-1, 1, 6)
    x = np.linspace(0, 1, 401)
    y = evaluate(FuncVec(coeffs, basis), x)
    recovered = project(x, y, basis).coeffs
    assert np.max(np.abs(recovered - coeffs)) < 1e-8


def test_derivatives_match_finite_differences():
    basis = make_cosine_basis(p=4, n_quad=101)
    x = np.linspace(0.1, 0.9, 17)
    eps = 1e-5
    fd1 = (basis.values(x + eps) - basis.values(x - eps)) / (2 * eps)
    assert np.max(np.abs(fd1 - basis.deriv_values(x, order=1))) < 1e-5
    fd2 = (basis.values(x + eps) - 2 * basis.values(x) + basis.values(x - eps)) / eps**2
    assert np.max(np.abs(fd2 - basis.deriv_values(x, order=2))) < 1e-3


def test_make_cosine_basis_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_cosine_basis(p=0)
    with pytest.raises(ValueError):
        make_cosine_basis(p=10, n_quad=20)  # needs >= 2p + 1


def test_basis_system_validates_rule():
    nodes, weights = composite_gauss_legendre(51, (0.0, 1.0))
    with pytest.raises(ValueError):
        BasisSystem((0.0, 1.0), 2, nodes, 2 * weights)  # bad weight sum
    with pytest.raises(ValueError):
        BasisSystem((0.0, 1.0), 2, nodes[::-1].copy(), weights)
    with pytest.raises(ValueError):
        BasisSystem((1.0, 0.0), 2, nodes, weights)


def test_funcvec_validation():
    basis = make_cosine_basis(p=3, n_quad=21)
    with pytest.raises(ValueError):
        FuncVec(np.zeros(2), basis)
    with pytest.raises(ValueError):
        FuncVec(np.array([np.nan, 0.0, 0.0]), basis)


def test_dataset_validation():
    basis = make_cosine_basis(p=2, n_quad=21)
    with pytest.raises(ValueError):
        DataSet(U=np.zeros((3, 2)), F=np.zeros((4, 2)), basis=basis)
    with pytest.raises(ValueError):
        DataSet(U=np.zeros((0, 2)), F=np.zeros((0, 2)), basis=basis)
    with pytest.raises(ValueError):
        DataSet(U=np.zeros((3, 5)), F=np.zeros((3, 5)), basis=basis)
    for name, bad in (("U", np.inf), ("F", np.nan), ("F", -np.inf)):
        mats = {"U": np.zeros((3, 2)), "F": np.zeros((3, 2))}
        mats[name][2, 1] = bad
        with pytest.raises(ValueError, match=f"{name} holds a non-finite entry in row 2"):
            DataSet(**mats, basis=basis)


@pytest.mark.parametrize("penalty", [-1.0, -1e-12, np.nan, np.inf])
def test_project_rejects_a_negative_or_non_finite_penalty(penalty):
    basis = make_cosine_basis(p=3, n_quad=101)
    x = np.linspace(0, 1, 50)
    with pytest.raises(ValueError, match="penalty must be finite and >= 0"):
        project(x, np.cos(np.pi * x), basis, penalty=penalty)


def test_project_penalty_shrinks_by_the_fourth_power_of_frequency():
    basis = make_cosine_basis(p=3, n_quad=101, interval=(0.5, 2.0))
    x = np.linspace(0.5, 2.0, 200)
    plain = project(x, basis.values(x) @ np.ones(3), basis).coeffs
    penalized = project(x, basis.values(x) @ np.ones(3), basis, penalty=1e-3).coeffs
    # orthonormal columns: the penalized normal equations are (I + penalty diag(f^4)) c = plain
    np.testing.assert_allclose(penalized, plain / (1 + 1e-3 * basis.frequencies**4), rtol=1e-10)


def test_project_rank_gate():
    basis = make_cosine_basis(p=10, n_quad=201)
    x = np.linspace(0, 1, 5)
    with pytest.raises(SingularSystemError):
        project(x, np.ones(5), basis)


def test_project_coverage_gate():
    basis = make_cosine_basis(p=3, n_quad=101)
    x = np.linspace(0.2, 0.8, 50)
    with pytest.raises(ValueError):
        project(x, np.sin(x), basis)



