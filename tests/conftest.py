"""Shared fixtures: small bases and kernel matrices reused across tests."""

import numpy as np
import pytest

from diffreg import (
    KernelSpec,
    assemble,
    identity_op,
    make_cosine_basis,
    neg_laplacian,
)


@pytest.fixture(scope="session")
def basis_p3():
    return make_cosine_basis(p=3, n_quad=101)


@pytest.fixture(scope="session")
def km_p3(basis_p3):
    """Moderate-bandwidth kernels: cheap and well conditioned for unit tests."""
    return assemble(
        basis_p3,
        P=neg_laplacian(),
        B=identity_op(),
        L=neg_laplacian(),
        spec=KernelSpec(h=0.2),
    )


@pytest.fixture(scope="session")
def basis_p10():
    return make_cosine_basis(p=10, n_quad=201)


def random_dataset(basis, n, seed, noise=0.1, multipliers=None):
    """Data from a diagonal operator plus noise, for solver-level tests."""
    rng = np.random.default_rng(seed)
    p = basis.p
    if multipliers is None:
        multipliers = (np.arange(1, p + 1) * np.pi) ** 2
    U = rng.uniform(-1, 1, size=(n, p)) * np.arange(1, p + 1) ** -2.0
    F = U * multipliers + noise * rng.standard_normal((n, p))
    return U, F

