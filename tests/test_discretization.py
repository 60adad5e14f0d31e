import math

import numpy as np
import pytest

from sobolev_lab.discretization import (
    MIN_NODES,
    DiscreteFunction,
    DiscretizationMismatchError,
    build,
    gradient_norm_sq,
    inner,
    laplace_eigenpairs,
    lp_norm,
)
from sobolev_lab.geometry import make_sphere


def test_quadrature_total_mass(sphere3_disc, product4_disc):
    for disc in (sphere3_disc, product4_disc):
        assert disc.integrate(np.ones(disc.n)) == pytest.approx(
            disc.model.total_volume, rel=1e-13
        )


def test_quadrature_polynomial_exactness(sphere3_disc):
    # int_{S^3} cos^2 t dVol = Vol(S^3) / 4 (exact for the Gauss rule)
    vals = np.cos(sphere3_disc.nodes) ** 2
    assert sphere3_disc.integrate(vals) == pytest.approx(
        sphere3_disc.model.total_volume / 4.0, rel=1e-13
    )


def test_min_nodes_enforced(sphere3):
    with pytest.raises(ValueError):
        build(sphere3, MIN_NODES - 1)


def test_product_requires_even_n(product4):
    with pytest.raises(ValueError):
        build(product4, 65)


def test_differentiation_smooth_function(sphere3_disc):
    f = np.cos(2.0 * sphere3_disc.nodes)
    df_exact = -2.0 * np.sin(2.0 * sphere3_disc.nodes)
    df = sphere3_disc.diff_matrix @ f
    assert np.max(np.abs(df - df_exact)) < 1e-10


def test_fourier_differentiation(product4_disc):
    k = 2.0 * math.pi / product4_disc.model.length
    f = np.sin(3.0 * k * product4_disc.nodes)
    df = product4_disc.diff_matrix @ f
    assert np.max(np.abs(df - 3.0 * k * np.cos(3.0 * k * product4_disc.nodes))) < 1e-10


def test_laplacian_annihilates_constants(sphere3_disc, product4_disc):
    for disc in (sphere3_disc, product4_disc):
        assert np.max(np.abs(disc.laplace_matrix @ np.ones(disc.n))) < 1e-11


def test_sphere_eigenvalues_exact():
    # -Delta on radial functions of S^d has eigenvalues k (k + d - 1)
    for d in (3, 4, 5):
        disc = build(make_sphere(d), 96)
        got = laplace_eigenpairs(disc, 5).eigenvalues
        want = np.array([k * (k + d - 1) for k in range(5)], dtype=float)
        assert np.max(np.abs(got - want)) < 1e-9


def test_product_eigenvalues_exact(product4_disc):
    # circle of length 2 pi / sqrt(2): eigenvalues k^2 (d - 2), doubled for k >= 1
    got = laplace_eigenpairs(product4_disc, 5).eigenvalues
    want = np.array([0.0, 2.0, 2.0, 8.0, 8.0])
    assert np.max(np.abs(got - want)) < 1e-9


def test_eigenfunctions_orthonormal(sphere3_disc):
    sd = laplace_eigenpairs(sphere3_disc, 6)
    P = np.column_stack([f.values for f in sd.eigenfunctions])
    G = P.T @ (sphere3_disc.quad_weights[:, None] * P)
    assert np.max(np.abs(G - np.eye(6))) < 1e-10


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_eigenfunction_sign_convention(d, n):
    # radial eigenfunctions have equal |phi| at both poles, so the sign is
    # fixed by the first node with |phi| >= max|phi| / 2: the north pole
    sd = laplace_eigenpairs(build(make_sphere(d), n), 10)
    assert all(f.values[0] > 0 for f in sd.eigenfunctions)


def test_eigenpairs_k_validation(sphere3_disc):
    with pytest.raises(ValueError):
        laplace_eigenpairs(sphere3_disc, 0)
    with pytest.raises(ValueError):
        laplace_eigenpairs(sphere3_disc, sphere3_disc.n + 1)


def test_norms_against_closed_forms(sphere3_disc):
    vol = sphere3_disc.model.total_volume
    one = DiscreteFunction(sphere3_disc, np.ones(sphere3_disc.n))
    assert lp_norm(sphere3_disc, one, 2.0) == pytest.approx(math.sqrt(vol), rel=1e-13)
    assert lp_norm(sphere3_disc, one, 4.0) == pytest.approx(vol**0.25, rel=1e-13)
    assert inner(sphere3_disc, one, one) == pytest.approx(vol, rel=1e-13)
    assert gradient_norm_sq(sphere3_disc, one) < 1e-20


def test_gradient_norm_eigenfunction(sphere3_disc):
    # int |grad phi|^2 = lambda int phi^2 = lambda for orthonormal phi
    sd = laplace_eigenpairs(sphere3_disc, 3)
    phi = sd.eigenfunctions[1]
    assert gradient_norm_sq(sphere3_disc, phi) == pytest.approx(
        sd.eigenvalues[1], rel=1e-10
    )


def test_lp_norm_rejects_p_below_one(sphere3_disc):
    f = DiscreteFunction(sphere3_disc, np.ones(sphere3_disc.n))
    with pytest.raises(ValueError):
        lp_norm(sphere3_disc, f, 0.5)


def test_mixing_discretizations_raises(sphere3, sphere3_disc):
    other = build(sphere3, 64)
    f = DiscreteFunction(sphere3_disc, np.ones(sphere3_disc.n))
    g = DiscreteFunction(other, np.ones(other.n))
    with pytest.raises(DiscretizationMismatchError):
        inner(sphere3_disc, f, g)


def test_discrete_function_validation(sphere3_disc):
    with pytest.raises(ValueError):
        DiscreteFunction(sphere3_disc, np.ones(sphere3_disc.n - 1))
    bad = np.ones(sphere3_disc.n)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        DiscreteFunction(sphere3_disc, bad)


def test_convergence_with_resolution(sphere3):
    # spectral accuracy: the k = 3 eigenvalue error collapses fast in n
    errs = []
    for n in (16, 24, 32):
        disc = build(sphere3, n)
        errs.append(abs(laplace_eigenpairs(disc, 4).eigenvalues[3] - 15.0))
    assert errs[2] < 1e-9
    assert errs[2] <= errs[0] + 1e-12
