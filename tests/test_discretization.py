import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.special import roots_jacobi

from sobolev_lab import constants as cst
from sobolev_lab import discretization as dz
from sobolev_lab import functionals as fn
from sobolev_lab import optimize as opt
from sobolev_lab import stability as st
from sobolev_lab.discretization import (
    MIN_NODES,
    DiscreteFunction,
    DiscretizationMismatchError,
    _fourier_matrices,
    _weak_laplacian,
    build,
    gradient_norm_sq,
    inner,
    laplace_eigenpairs,
    lp_norm,
)
from sobolev_lab.geometry import make_product, make_sphere


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


@pytest.mark.parametrize("n,bound", [(256, 5.7e-10), (512, 6.8e-9), (1024, 2.6e-7)])
def test_certify_at_the_constant_reads_the_weak_laplacians_projection(n, bound):
    # the L^q-normalized constant is critical; relative to Q max|u|^{q-1}, certify reads 5.7e-11,
    # 6.8e-10 and 2.5e-8 on S^8 at q = 2.5 (the bounds are 10x that), and 9.1e-9, 3.0e-7 and
    # 1.8e-5 without the P^T Ke P block of _weak_laplacian, whose polar rows then miss L 1 = 0
    disc = build(make_sphere(8), n)
    spec = cst.default_spec(disc, 2.5)
    u = fn.normalize(DiscreteFunction(disc, np.ones(n)), spec.q)
    scale = fn.quotient(spec, u) * np.max(np.abs(u.values)) ** (spec.q - 1.0)
    assert opt.certify(spec, u) <= bound * scale


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


def test_eigenpairs_residual_guard(sphere3_disc, monkeypatch):
    real = dz._refine

    def loose(S, V):
        values, vecs, residuals = real(S, V)
        return values, vecs, residuals + 1.0

    monkeypatch.setattr(dz, "_refine", loose)
    with pytest.raises(RuntimeError, match="eigen-solve residuals too large: 1.0"):
        laplace_eigenpairs(sphere3_disc, 4)


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


@pytest.mark.parametrize("d", [3, 8, 16])
@pytest.mark.parametrize("n", [64, 65, 256, 257])
def test_sphere_laplacian_is_reflection_symmetric(d, n):
    disc = build(make_sphere(d), n)
    L, R, qw = disc.laplace_matrix, disc.mirror, disc.quad_weights
    assert np.array_equal(R, np.arange(n)[::-1])
    assert np.max(np.abs(disc.nodes[R] + disc.nodes - math.pi)) <= 1e-15
    assert np.array_equal(qw[R], qw)
    assert np.array_equal(L[R][:, R], L)
    # W L is assembled as K = Dt^T W Dt, then divided by W
    K = _weak_laplacian(disc.diff_matrix, qw)
    assert np.array_equal(K, K.T)
    assert np.array_equal(K[R][:, R], K)
    assert np.array_equal(K / qw[:, None], L)


@pytest.mark.parametrize("d", [3, 8, 16])
@pytest.mark.parametrize("n", [64, 65, 256, 257, 1024])
def test_split_gram_matches_one_gram_reference(d, n):
    # the even and odd halves' two Gram products against P^T Dt^T W Dt P from one n x n Gram
    disc = build(make_sphere(d), n)
    Dt, qw = disc.diff_matrix, disc.quad_weights
    assert np.array_equal(Dt[::-1, ::-1], -Dt)  # the split rests on Dt being exactly odd
    G = np.sqrt(qw)[:, None] * Dt
    K = G.T @ G
    p, r = qw / qw.sum(), K.sum(axis=1)
    want = K - np.outer(r, p) - np.outer(p, r) + r.sum() * np.outer(p, p)
    want = 0.5 * (want + want.T)
    got = _weak_laplacian(Dt, qw)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("n", [64, 512])
def test_product_laplacian_is_exactly_symmetric(d, n):
    disc = build(make_product(d), n)
    L, R = disc.laplace_matrix, disc.mirror
    assert np.array_equal(L, L.T)
    assert np.array_equal(L[R][:, R], L)
    assert np.array_equal(np.flatnonzero(R == np.arange(n)), [0, n // 2])
    assert np.array_equal(R[R], np.arange(n))


FOLD_CASES = [("sphere", 3, 65), ("sphere", 8, 64), ("product", 4, 64), ("product", 16, 256)]


@pytest.mark.parametrize("model, d, n", FOLD_CASES)
@pytest.mark.parametrize("which_k", ["1", "n/2", "n/2+1", "n"])
def test_folded_solve_matches_dense_reference(model, d, n, which_k):
    disc = build(make_sphere(d) if model == "sphere" else make_product(d), n)
    k = {"1": 1, "n/2": n // 2, "n/2+1": n // 2 + 1, "n": n}[which_k]
    sw = np.sqrt(disc.quad_weights)
    ref_values, ref_vecs = eigh((sw[:, None] * disc.laplace_matrix) / sw[None, :])
    sd = laplace_eigenpairs(disc, k)
    # both solves are backward stable: each eigenvalue also carries an
    # absolute error of order eps * ||S||_2, which dominates at the zero mode
    scale = max(1.0, abs(ref_values[k - 1]))
    floor = 2.0 * np.finfo(float).eps * abs(ref_values[-1])
    assert np.max(np.abs(sd.eigenvalues - ref_values[:k])) <= 1e-12 * scale + floor
    # each eigenvector lies in the reference eigenspace of its eigenvalue,
    # which takes in both members of a cos/sin pair of the product
    X = np.column_stack([f.values for f in sd.eigenfunctions]) * sw[:, None]
    assert np.max(np.abs(X.T @ X - np.eye(k))) <= 1e-12
    gaps = np.abs(ref_values[:, None] - sd.eigenvalues[None, :])
    for i in range(k):
        space = ref_vecs[:, gaps[:, i] <= 1e-9 * max(1.0, abs(sd.eigenvalues[i]))]
        assert 1 <= space.shape[1] <= (2 if model == "product" else 1)
        outside = X[:, i] - space @ (space.T @ X[:, i])
        assert np.linalg.norm(outside) <= 1e-8


@pytest.mark.parametrize("model, d, n", FOLD_CASES)
def test_eigenfunctions_are_even_or_odd(model, d, n):
    disc = build(make_sphere(d) if model == "sphere" else make_product(d), n)
    R = disc.mirror
    for f in laplace_eigenpairs(disc, 12).eigenfunctions:
        assert np.array_equal(f.values[R], f.values) or np.array_equal(f.values[R], -f.values)


@pytest.mark.parametrize("d", [3, 4, 8, 16])
@pytest.mark.parametrize("n", [16, 64, 128, 256, 512, 1024])
def test_product_pairs_put_the_even_mode_first(d, n):
    # each cos/sin pair of equal eigenvalue is (even, odd) on every grid, so the ray
    # from the constants and the multistart's 1 + 0.3 phi_1 start leave along cos
    disc = build(make_product(d), n)
    R = disc.mirror
    sd = laplace_eigenpairs(disc, 15)
    for i in range(1, 15, 2):
        even, odd = sd.eigenfunctions[i].values, sd.eigenfunctions[i + 1].values
        assert sd.eigenvalues[i] == sd.eigenvalues[i + 1]
        assert np.array_equal(even[R], even) and np.array_equal(odd[R], -odd)
    direction = st.ray_from_constants(cst.default_spec(disc, fn.sobolev_conjugate(d))).direction
    v = direction.values
    assert np.max(np.abs(v[R] - v)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("n", [16, 64, 256])
def test_product_eigenpairs_make_no_dense_solve(monkeypatch, n):
    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigen-solve on the circle")

    monkeypatch.setattr(dz, "eigh", no_eigh)
    disc = build(make_product(4), n)
    for k in (1, n):
        sd = laplace_eigenpairs(disc, k)
        assert len(sd.eigenfunctions) == k
        assert sd.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(AssertionError, match="dense eigen-solve"):
        laplace_eigenpairs(build(make_sphere(3), 16), 2)


@pytest.mark.parametrize("d", [3, 8, 16])
@pytest.mark.parametrize("n", [256, 512, 1024])
def test_product_spectra_grid_is_accurate(d, n):
    # the product half of the spectrum benchmark grid, k = 16, against (2 pi m / length)^2
    disc = build(make_product(d), n)
    sd = laplace_eigenpairs(disc, 16)
    j = np.arange(16)
    want = (2.0 * math.pi * np.ceil(j / 2.0) / disc.model.length) ** 2
    assert np.max(np.abs(sd.eigenvalues - want) / np.maximum(want, want[1])) <= 1e-10
    assert np.max(sd.residuals) <= 1e-8 * max(1.0, sd.eigenvalues[-1])


def _log_scale_diff_matrix(x):
    """Reference: barycentric weights of arbitrary nodes, accumulated in log scale."""
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.sum(np.log(np.abs(diff)), axis=1)
    sgn = np.prod(np.sign(diff), axis=1)
    logw -= logw.max()
    w = sgn * np.exp(logw)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


@pytest.mark.parametrize("d", [3, 8, 16])
@pytest.mark.parametrize("n", [16, 17, 64, 65, 256, 257, 512, 1024])
def test_sphere_diff_matrix_matches_log_scale_weights(d, n):
    a = (d - 2) / 2.0
    x = roots_jacobi(n, a, a)[0][::-1].copy()
    want = -np.sin(np.arccos(x))[:, None] * _log_scale_diff_matrix(x)
    got = build(make_sphere(d), n).diff_matrix
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


RULE_SIZES = [16, 17, 64, 65, 256, 257, 1024]


@pytest.mark.parametrize("d", [3, 4, 5, 8, 16])
@pytest.mark.parametrize("n", RULE_SIZES)
def test_gegenbauer_rule_matches_roots_jacobi(d, n):
    # the rule from the half-size Jacobi matrix, mirrored, against scipy's full-size one
    a = (d - 2) / 2.0
    x, w = dz._gegenbauer_rule(n, a + 0.5)
    want_x, want_w = (v[::-1] for v in roots_jacobi(n, a, a))
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
    assert np.max(np.abs(x - want_x)) <= 4e-16
    assert np.max(np.abs(w / want_w - 1.0)) <= 1e-8


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gegenbauer_rule_is_the_chebyshev_u_rule_at_d_3(n):
    # lam = 1: x_j = cos(j pi / (n + 1)), w_j = pi / (n + 1) sin^2(j pi / (n + 1)) exactly; the
    # nodes as sin((n + 1 - 2j) pi / (2n + 2)), which keeps its digits near x = 0
    x, w = dz._gegenbauer_rule(n, 1.0)
    j = np.arange(1, n + 1)
    theta = j * (math.pi / (n + 1))
    assert np.max(np.abs(x - np.sin((n + 1 - 2 * j) * (math.pi / (2 * n + 2))))) <= 4e-16
    assert np.max(np.abs(w / (math.pi / (n + 1) * np.sin(theta) ** 2) - 1.0)) <= 1e-10


def _christoffel_weights(x, lam):
    """mu_0 / sum_{k<n} p_k(x)^2 at the nodes x, the orthonormal recurrence run in long double."""
    X, k = x.astype(np.longdouble), np.arange(1, len(x), dtype=np.longdouble)
    b = np.append(0, np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1))))  # b_0 = 0
    prev, p = np.zeros_like(X), np.ones_like(X)
    total = p * p
    for j in range(1, len(x)):
        prev, p = p, (X * p - b[j - 1] * prev) / b[j]
        total += p * p
    mu0 = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)
    return np.longdouble(mu0) / total


@pytest.mark.parametrize("d", [8, 16, 40, 64])
@pytest.mark.parametrize("n", [256, 1024, 1025])
def test_gegenbauer_rule_weights_match_the_christoffel_numbers(d, n):
    # the Gauss weights are the Christoffel numbers at the rule's own nodes; the formula
    # 1/(C_{n-1} C_n'), which amplifies the nodes' rounding near the poles, read up to 8.4e-10 off
    x, w = dz._gegenbauer_rule(n, 0.5 * (d - 1))
    assert float(np.max(np.abs(w / _christoffel_weights(x, 0.5 * (d - 1)) - 1.0))) <= 1e-10


@pytest.mark.parametrize("d", [3, 8, 16])
@pytest.mark.parametrize("n", RULE_SIZES)
def test_raw_diff_matrix_is_exactly_odd(d, n):
    # the barycentric formula on every row, before the row-sum correction: Dt[Ri, Rj] = -Dt[i, j]
    # bit for bit, so build's top rows and their mirror image are this matrix
    a = (d - 2) / 2.0
    x, wq = dz._gegenbauer_rule(n, a + 0.5)
    sin_t = np.sin(np.arccos(np.abs(x)))
    bw = (-1.0) ** np.arange(n) * sin_t * np.sqrt(wq)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    raw = (bw[None, :] / bw[:, None]) / diff
    np.fill_diagonal(raw, (a + 1.0) * x / sin_t**2)
    raw *= -sin_t[:, None]
    assert np.array_equal(raw[::-1, ::-1], -raw)
    disc = build(make_sphere(d), n)
    s, qw = raw.sum(axis=1), disc.quad_weights
    assert np.array_equal(disc.diff_matrix, raw - np.outer(0.5 * (s - s[::-1]), qw / qw.sum()))


@pytest.mark.parametrize("d", [3, 8, 16])
@pytest.mark.parametrize("n", RULE_SIZES)
def test_sphere_eigenpairs_match_a_dense_solve(d, n):
    # the modal start and one shift-invert step on each half against one eigh of sqrt(W) L / sqrt(W)
    disc = build(make_sphere(d), n)
    sw, R = np.sqrt(disc.quad_weights), disc.mirror
    S = sw[:, None] * disc.laplace_matrix / sw
    ref_values, ref_vecs = eigh(S)
    ref_res = np.linalg.norm(S @ ref_vecs - ref_vecs * ref_values, axis=0)
    exact = np.arange(n) * (np.arange(n) + d - 1.0)
    # the dense solve's own error, its rounding level on this grid, which moves 3x with the BLAS
    # thread count at d = 3, n = 1024; the margin 8 is twice the largest ratio seen, 3.9 at k = n
    bound = 8.0 * np.max(np.abs(ref_values - exact) / np.maximum(exact, d)) + 1e-13
    for k in sorted({1, 2, 9, 16, n}):
        sd = laplace_eigenpairs(disc, k)
        j = np.arange(k)
        assert np.max(np.abs(sd.eigenvalues - exact[:k]) / np.maximum(exact[:k], d)) <= bound
        phis = sd.matrix
        X = phis * sw[:, None]
        ref = ref_vecs[:, :k] * np.sign(np.sum(ref_vecs[:, :k] * X, axis=0))
        assert np.max(np.linalg.norm(X - ref, axis=0)) <= 1e-10
        assert np.array_equal(phis[R], phis * (-1.0) ** j)
        # at k = 1 and n = 1024 the product S v alone rounds above 1e-10 (the dense solve's 6e-10)
        scale = max(1.0, sd.eigenvalues[-1])
        assert np.max(sd.residuals) <= max(1e-10 * scale, np.max(ref_res[:k]))


def test_sphere_eigenpairs_make_no_large_solve(monkeypatch):
    # the two Ritz problems at n = 1024, k = 16 are 8 x 8: no half-size eigh of 512 rows
    sizes, real = [], dz.eigh
    monkeypatch.setattr(dz, "eigh", lambda S, *a, **kw: sizes.append(len(S)) or real(S, *a, **kw))
    laplace_eigenpairs(build(make_sphere(3), 1024), 16)
    assert sizes and max(sizes) <= 8


@pytest.mark.parametrize("n", [16, 64, 512])
def test_product_matrices_match_index_gather(n):
    model = make_product(4)
    h = 2.0 * math.pi / n
    k = np.arange(1, n)
    col_d = np.zeros(n)
    col_d[1:] = 0.5 * (-1.0) ** k / np.tan(k * h / 2.0)
    col_d2 = np.zeros(n)
    col_d2[0] = -math.pi**2 / (3.0 * h**2) - 1.0 / 6.0
    m = np.minimum(k, n - k)
    col_d2[1:] = -((-1.0) ** m) / (2.0 * np.sin(m * h / 2.0) ** 2)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    scale = 2.0 * math.pi / model.length
    D, D2 = _fourier_matrices(n, model.length)
    assert np.array_equal(D, scale * col_d[idx])
    assert np.array_equal(D2, scale**2 * col_d2[idx])
    disc = build(model, n)
    assert np.array_equal(disc.diff_matrix, D)
    assert np.array_equal(disc.laplace_matrix, -D2)


def test_sphere_build_peak_memory():
    n = 1024
    build(make_sphere(3), 64)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        build(make_sphere(3), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * n * 8 + 2**20


@pytest.mark.parametrize("model", [make_sphere(3), make_product(4)])
def test_spectral_matrix_columns_are_the_eigenfunctions(model):
    sd = laplace_eigenpairs(build(model, 32), 5)
    assert sd.matrix.shape == (32, 5) and sd.matrix.flags.c_contiguous
    for j, f in enumerate(sd.eigenfunctions):
        assert np.array_equal(sd.matrix[:, j], f.values)
