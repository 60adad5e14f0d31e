import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sobolev_lab import discretization as dz
from sobolev_lab import functionals as fn
from sobolev_lab.discretization import DiscreteFunction, laplace_eigenpairs
from sobolev_lab.functionals import (
    MixedSignWarning,
    QuotientSpec,
    sobolev_conjugate,
)


def test_sobolev_conjugate_values():
    assert sobolev_conjugate(3) == pytest.approx(6.0)
    assert sobolev_conjugate(4) == pytest.approx(4.0)
    assert sobolev_conjugate(6) == pytest.approx(3.0)


def test_spec_validation(sphere3_disc):
    with pytest.raises(ValueError):
        QuotientSpec(A=-1.0, B=1.0, q=4.0, disc=sphere3_disc)
    with pytest.raises(ValueError):
        QuotientSpec(A=1.0, B=0.0, q=4.0, disc=sphere3_disc)
    with pytest.raises(ValueError):
        QuotientSpec(A=1.0, B=1.0, q=2.0, disc=sphere3_disc)
    with pytest.raises(ValueError):
        QuotientSpec(A=1.0, B=1.0, q=6.5, disc=sphere3_disc)  # above 2* = 6


def test_quotient_of_constant_is_one(subcritical_spec):
    # with A = A_opt and B = Vol^{2/q-1} the normalized constant has Q = 1
    disc = subcritical_spec.disc
    c = fn.normalize(DiscreteFunction(disc, np.ones(disc.n)), subcritical_spec.q)
    assert fn.quotient(subcritical_spec, c) == pytest.approx(1.0, abs=1e-13)
    assert abs(fn.deficit(subcritical_spec, c)) < 1e-13


def test_deficit_matches_quotient_minus_one(subcritical_spec, rng):
    disc = subcritical_spec.disc
    u = DiscreteFunction(disc, 1.0 + 0.1 * np.cos(disc.nodes))
    assert fn.deficit(subcritical_spec, u) == pytest.approx(
        fn.quotient(subcritical_spec, u) - 1.0, rel=1e-10
    )


def _samples(disc, rng, count=40):
    """Positive, mixed-sign and negative functions made from low Laplace modes and noise."""
    phis = np.column_stack([f.values for f in laplace_eigenpairs(disc, 6).eigenfunctions])
    offsets = np.resize([1.0, 0.1, 0.0, -1.0], count)[:, None]
    smooth = (0.4 * rng.standard_normal((count, 6))) @ phis.T
    return offsets + smooth + 0.01 * rng.standard_normal((count, disc.n))


@pytest.mark.parametrize("spec_name", [
    "subcritical_spec", "critical_sphere_spec", "critical_product_spec",
])
def test_quotient_and_deficit_match_the_quadrature_formula(spec_name, request, rng):
    # bit for bit against (A ||Du||^2 + B ||u||^2) / ||u||_q^2 from the quadrature helpers
    spec = request.getfixturevalue(spec_name)
    disc = spec.disc
    samples = _samples(disc, rng)
    assert np.any(np.all(samples > 0, axis=1)) and np.any(np.ptp(np.sign(samples), axis=1) == 2)
    for values in samples:
        u = DiscreteFunction(disc, values)
        num = spec.A * dz.gradient_norm_sq(disc, u) + spec.B * dz.inner(disc, u, u)
        denom = dz.lp_norm(disc, u, spec.q) ** 2
        assert fn.quotient(spec, u) == num / denom
        assert fn.deficit(spec, u) == (num - denom) / denom


@pytest.mark.parametrize("spec_name", ["subcritical_spec", "critical_product_spec"])
def test_quotient_parts_of_a_stack_match_each_row(spec_name, request, rng):
    spec = request.getfixturevalue(spec_name)
    U = _samples(spec.disc, rng, count=200)
    DU = U @ spec.disc.diff_matrix.T
    num, norm = fn.quotient_parts(spec, U, DU)
    assert num.shape == norm.shape == (200,)
    rows = [fn.quotient_parts(spec, u, du) for u, du in zip(U, DU)]
    np.testing.assert_array_equal(num, [r[0] for r in rows])
    np.testing.assert_array_equal(norm, [r[1] for r in rows])


@settings(max_examples=20, deadline=None)
@given(scale=hst.floats(min_value=1e-6, max_value=1e6))
def test_quotient_zero_homogeneity(subcritical_spec, scale):
    disc = subcritical_spec.disc
    base = 1.0 + 0.3 * np.cos(disc.nodes)
    q1 = fn.quotient(subcritical_spec, DiscreteFunction(disc, base))
    q2 = fn.quotient(subcritical_spec, DiscreteFunction(disc, scale * base))
    assert q2 == pytest.approx(q1, rel=1e-12)


def test_zero_function_rejected(subcritical_spec):
    z = DiscreteFunction(subcritical_spec.disc, np.zeros(subcritical_spec.disc.n))
    with pytest.raises(ValueError):
        fn.quotient(subcritical_spec, z)
    with pytest.raises(ValueError):
        fn.normalize(z, 4.0)


def test_normalize_unit_norm_and_idempotence(subcritical_spec, rng):
    disc = subcritical_spec.disc
    u = DiscreteFunction(disc, 1.0 + 0.5 * rng.standard_normal(disc.n) ** 2)
    v = fn.normalize(u, 4.0)
    from sobolev_lab.discretization import lp_norm

    assert lp_norm(disc, v, 4.0) == pytest.approx(1.0, rel=1e-14)
    w = fn.normalize(v, 4.0)
    assert np.allclose(v.values, w.values, rtol=1e-14)


def test_normalize_flips_nonpositive(sphere3_disc):
    u = DiscreteFunction(sphere3_disc, -np.ones(sphere3_disc.n))
    v = fn.normalize(u, 4.0)
    assert np.all(v.values > 0)


def test_normalize_warns_on_mixed_sign(sphere3_disc):
    u = DiscreteFunction(sphere3_disc, np.cos(sphere3_disc.nodes))
    with pytest.warns(MixedSignWarning):
        fn.normalize(u, 4.0)


def test_check_normalized(subcritical_spec):
    disc = subcritical_spec.disc
    u = DiscreteFunction(disc, np.ones(disc.n))
    with pytest.raises(ValueError):
        fn.check_normalized(subcritical_spec, u)


def _normalized_sample(spec, rng, amplitude=0.3):
    disc = spec.disc
    sd = laplace_eigenpairs(disc, 6)
    phis = np.column_stack([f.values for f in sd.eigenfunctions])
    coeffs = rng.standard_normal(6) * amplitude * 0.5 ** np.arange(6)
    return fn.normalize(DiscreteFunction(disc, np.abs(1.0 + phis @ coeffs)), spec.q)


def test_projection_annihilates_and_is_idempotent(subcritical_spec, rng):
    spec = subcritical_spec
    disc = spec.disc
    u = _normalized_sample(spec, rng)
    phi = DiscreteFunction(disc, rng.standard_normal(disc.n))
    p = fn.project_tangent(spec, u, phi)
    uq1 = fn.power_qm1(u.values, spec.q)
    pairing = float(np.sum(disc.quad_weights * uq1 * p.values))
    assert abs(pairing) < 1e-12
    p2 = fn.project_tangent(spec, u, p)
    assert np.allclose(p.values, p2.values, atol=1e-12)


def test_gradient_vanishes_at_constant(subcritical_spec):
    disc = subcritical_spec.disc
    c = fn.normalize(DiscreteFunction(disc, np.ones(disc.n)), subcritical_spec.q)
    g = fn.gradient(subcritical_spec, c)
    assert np.max(np.abs(g.values)) < 1e-10


def test_gradient_matches_finite_difference(subcritical_spec, rng):
    spec = subcritical_spec
    disc = spec.disc
    u = _normalized_sample(spec, rng)
    g = fn.gradient(spec, u)
    phi = np.cos(disc.nodes)
    pairing = float(np.sum(disc.quad_weights * g.values * phi))

    def q_at(eps):
        return fn.quotient(spec, DiscreteFunction(disc, u.values + eps * phi))

    fd = (q_at(5e-5) - q_at(-5e-5)) / 1e-4
    assert pairing == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_hessian_form_symmetric(subcritical_spec, rng):
    spec = subcritical_spec
    disc = spec.disc
    u = _normalized_sample(spec, rng)
    phi = DiscreteFunction(disc, rng.standard_normal(disc.n))
    eta = DiscreteFunction(disc, rng.standard_normal(disc.n))
    h1 = fn.hessian_form(spec, u, phi, eta)
    h2 = fn.hessian_form(spec, u, eta, phi)
    assert h1 == pytest.approx(h2, rel=1e-11)


def test_hessian_at_constant_closed_form(subcritical_spec):
    # at the normalized constant the tangent Hessian along the k-th mode is
    # 2 (q - 2) B (lambda_k / lambda_1 - 1) for A = (q-2)/lambda_1 * Vol^{2/q-1}
    spec = subcritical_spec
    disc = spec.disc
    c = fn.normalize(DiscreteFunction(disc, np.ones(disc.n)), spec.q)
    sd = laplace_eigenpairs(disc, 4)
    lam1 = sd.eigenvalues[1]
    for k in (1, 2, 3):
        phi = sd.eigenfunctions[k]
        got = fn.hessian_form(spec, c, phi, phi)
        # normalize by int phi^2 = 1
        want = 2.0 * (spec.q - 2.0) * spec.B * (sd.eigenvalues[k] / lam1 - 1.0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_hessian_matrix_matches_form(subcritical_spec, rng):
    spec = subcritical_spec
    disc = spec.disc
    u = _normalized_sample(spec, rng)
    H = fn.hessian_matrix(spec, u)
    sw = np.sqrt(disc.quad_weights)
    # H is the Hessian on tangent directions only
    phi = fn.project_tangent(spec, u, DiscreteFunction(disc, rng.standard_normal(disc.n)))
    eta = fn.project_tangent(spec, u, DiscreteFunction(disc, rng.standard_normal(disc.n)))
    quad = float((sw * phi.values) @ H @ (sw * eta.values))
    form = fn.hessian_form(spec, u, phi, eta)
    assert quad == pytest.approx(form, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("spec_name", ["subcritical_spec", "critical_product_spec"])
def test_hessian_matrix_symmetric(spec_name, request, rng):
    # no symmetrization: W (-Delta) is symmetric by construction
    spec = request.getfixturevalue(spec_name)
    H = fn.hessian_matrix(spec, _normalized_sample(spec, rng))
    assert np.linalg.norm(H - H.T) <= 1e-13 * np.linalg.norm(H)


def _dense_hessian(spec, u):
    """P^T S P with P = I - u (W u^{q-1})^T, by dense products, in the sqrt(W) frame."""
    qw = spec.disc.quad_weights
    S = qw[:, None] * fn.euler_lagrange_jacobian(spec, u.values, 2.0 * fn.quotient(spec, u))
    P = np.eye(spec.disc.n) - np.outer(u.values, qw * fn.power_qm1(u.values, spec.q))
    sw = np.sqrt(qw)
    return (P.T @ S @ P) / sw[:, None] / sw[None, :]


@pytest.mark.parametrize("spec_name", ["subcritical_spec", "critical_product_spec"])
def test_hessian_matrix_matches_dense_projection(spec_name, request, rng):
    # the projection P is the identity on tangent vectors: the compressions agree
    spec = request.getfixturevalue(spec_name)
    u = _normalized_sample(spec, rng)
    Z = fn.tangent_frame(spec, u)
    H = Z.T @ fn.hessian_matrix(spec, u) @ Z
    dense = Z.T @ _dense_hessian(spec, u) @ Z
    assert np.linalg.norm(H - dense) <= 1e-12 * np.linalg.norm(H, 2)


@pytest.mark.parametrize("spec_name", ["subcritical_spec", "critical_product_spec"])
def test_tangent_frame_is_the_reflector(spec_name, request, rng):
    spec = request.getfixturevalue(spec_name)
    u = _normalized_sample(spec, rng)
    v = fn.tangent_reflector(spec, u)
    H = np.eye(spec.disc.n) - 2.0 * np.outer(v, v)
    z = np.sqrt(spec.disc.quad_weights) * fn.power_qm1(u.values, spec.q)
    assert np.linalg.norm(H[:, 0] + np.sign(z[0]) * z / np.linalg.norm(z)) < 1e-14
    assert np.max(np.abs(fn.tangent_frame(spec, u) - H[:, 1:])) < 1e-15


@pytest.mark.parametrize("spec_name", ["subcritical_spec", "critical_product_spec"])
def test_euler_lagrange_jacobian_matches_finite_difference(spec_name, request, rng):
    spec = request.getfixturevalue(spec_name)
    sample = _normalized_sample(spec, rng)
    u = sample.values
    theta = 2.0 * fn.quotient(spec, sample)
    # smooth direction from low Laplace modes, scaled to the size of u
    sd = laplace_eigenpairs(spec.disc, 4)
    w = sum(0.5**k * sd.eigenfunctions[k].values for k in (1, 2, 3))
    v = np.max(np.abs(u)) * w / np.max(np.abs(w))
    h = 1e-4
    fd = (
        fn.euler_lagrange(spec, u + h * v, theta) - fn.euler_lagrange(spec, u - h * v, theta)
    ) / (2.0 * h)
    Jv = fn.euler_lagrange_jacobian(spec, u, theta) @ v
    assert np.max(np.abs(Jv - fd)) <= 1e-7 * np.max(np.abs(Jv))


def test_tangent_frame_orthonormal_and_tangent(subcritical_spec, rng):
    spec = subcritical_spec
    u = _normalized_sample(spec, rng)
    Z = fn.tangent_frame(spec, u)
    n = spec.disc.n
    assert Z.shape == (n, n - 1)
    assert np.max(np.abs(Z.T @ Z - np.eye(n - 1))) < 1e-12
    z = np.sqrt(spec.disc.quad_weights) * fn.power_qm1(u.values, spec.q)
    assert np.max(np.abs(Z.T @ z)) < 1e-12 * np.linalg.norm(z)


def test_power_helpers():
    u = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(fn.power_qm1(u, 4.0), np.abs(u) ** 2 * u)
    assert np.allclose(fn.power_qm2(u, 4.0), np.abs(u) ** 2)


def test_power_qm2_warns_near_zero():
    u = np.array([1.0, 1e-12, 1.0])
    with pytest.warns(fn.ConditioningWarning):
        fn.power_qm2(u, 2.5)


@pytest.mark.parametrize("disc_name", ["sphere3_disc", "product4_disc"])
def test_projection_at_a_constant_keeps_odd_modes_and_takes_the_mean(disc_name, request):
    disc = request.getfixturevalue(disc_name)
    spec = QuotientSpec(A=1.0, B=1.0, q=4.0, disc=disc)
    c = fn.normalize(DiscreteFunction(disc, np.ones(disc.n)), spec.q)
    for f in laplace_eigenpairs(disc, 6).eigenfunctions[1:]:
        p = fn.project_tangent(spec, c, f)
        if np.array_equal(f.values[disc.mirror], -f.values):  # odd: the pairing is exactly 0
            assert np.array_equal(p.values, f.values)
        mean = disc.integrate(f.values) / disc.model.total_volume
        np.testing.assert_allclose(p.values, f.values - mean, rtol=0, atol=1e-14)
