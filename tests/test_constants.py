import math

import numpy as np
import pytest

from sobolev_lab import constants as cst
from sobolev_lab import functionals as fn
from sobolev_lab.discretization import (
    DiscreteFunction, build, gradient_norm_sq, inner, laplace_eigenpairs, lp_norm,
)
from sobolev_lab.geometry import make_product, make_sphere


def test_euclidean_constant_oracle():
    # S_3 = sqrt(4/3) * (2 pi^2)^{-1/3}, computed by hand
    want = math.sqrt(4.0 / 3.0) * (2.0 * math.pi**2) ** (-1.0 / 3.0)
    assert cst.euclidean_sobolev_constant(3) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        cst.euclidean_sobolev_constant(2)


def test_beta_constant(sphere3):
    assert cst.beta_constant(sphere3) == pytest.approx(
        (2.0 * math.pi**2) ** (-2.0 / 3.0), rel=1e-14
    )


def test_spectral_gap_values(sphere3_disc, product4_disc):
    assert cst.spectral_gap(sphere3_disc) == pytest.approx(3.0, rel=1e-10)
    assert cst.spectral_gap(product4_disc) == pytest.approx(2.0, rel=1e-10)


def test_a_opt_sphere_closed_form_oracle():
    # d = 3, q = 4: (q-2)/d * Vol^{2/q-1} = (2/3) * (2 pi^2)^{-1/2}
    want = (2.0 / 3.0) * (2.0 * math.pi**2) ** (-0.5)
    assert cst.a_opt_sphere_closed_form(3, 4.0) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        cst.a_opt_sphere_closed_form(3, 2.0)
    with pytest.raises(ValueError):
        cst.a_opt_sphere_closed_form(3, 7.0)


def test_spectral_gap_route_matches_closed_form(sphere3_disc):
    for q in (2.5, 3.0, 4.0, 6.0):
        assert cst.a_opt_spectral_gap(sphere3_disc, q) == pytest.approx(
            cst.a_opt_sphere_closed_form(3, q), rel=1e-10
        )


def test_a_opt_product_critical_oracle():
    # d = 4: 4/(d-2)^2 * Vol^{-2/d} = Vol^{-1/2}
    vol = make_product(4).total_volume
    assert cst.a_opt_product_critical(4) == pytest.approx(vol**-0.5, rel=1e-14)


def test_strict_binding_all_dimensions():
    # the inequality S_d^2 < A_opt(M*) reduces to 4/(d(d-2)) < 4/(d-2)^2 * (d-2)^{1/d}
    for d in range(3, 17):
        assert cst.check_strict_binding(d)
    with pytest.raises(ValueError):
        cst.check_strict_binding(2)


def test_b_lower_bound_product_equals_s4_squared():
    # for M* with d = 4 the curvature bound collapses to S_4^2
    model = make_product(4)
    s42 = cst.euclidean_sobolev_constant(4) ** 2
    assert cst.b_lower_bound(model) == pytest.approx(s42, rel=1e-13)


def test_b_lower_bound_sphere(sphere3):
    want = (1.0 / 8.0) * cst.euclidean_sobolev_constant(3) ** 2 * 6.0
    assert cst.b_lower_bound(sphere3) == pytest.approx(want, rel=1e-13)


def test_estimate_b_opt_sphere_attains_beta(sphere3, sphere3_disc):
    est = cst.estimate_b_opt(sphere3, sphere3_disc, budget=2, seed=0)
    beta = cst.beta_constant(sphere3)
    assert est >= beta - 1e-10
    assert est == pytest.approx(beta, abs=1e-6)


def test_estimate_b_opt_monotone_in_budget(product4, product4_disc):
    lo = cst.estimate_b_opt(product4, product4_disc, budget=1, seed=0)
    hi = cst.estimate_b_opt(product4, product4_disc, budget=3, seed=0)
    assert hi >= lo - 1e-15
    assert lo >= cst.beta_constant(product4) - 1e-10


def test_estimate_b_opt_deterministic(sphere3, sphere3_disc):
    a = cst.estimate_b_opt(sphere3, sphere3_disc, budget=2, seed=5)
    b = cst.estimate_b_opt(sphere3, sphere3_disc, budget=2, seed=5)
    assert a == b


def _b_search_space(disc, k=12):
    sd = laplace_eigenpairs(disc, k)
    return np.column_stack([f.values for f in sd.eigenfunctions]), sd.eigenvalues


def _b_basis(disc, phi):
    # (Phi, Gram PhiᵀWPhi, stiffness (DPhi)ᵀW(DPhi)), as estimate_b_opt builds it
    w, dphi = disc.quad_weights, disc.diff_matrix @ phi
    return phi, phi.T @ (w[:, None] * phi), dphi.T @ (w[:, None] * dphi)


@pytest.mark.parametrize("disc_name", ["sphere3_disc", "product4_disc"])
def test_b_search_basis_has_closed_form_gram_and_stiffness(disc_name, request):
    # the Laplace eigenbasis the search spans: PhiᵀWPhi = I and (DPhi)ᵀW(DPhi) = diag(lam)
    disc = request.getfixturevalue(disc_name)
    phi, lam = _b_search_space(disc)
    w = disc.quad_weights
    dphi = disc.diff_matrix @ phi
    assert np.max(np.abs(phi.T @ (w[:, None] * phi) - np.eye(len(lam)))) <= 1e-13
    stiff = dphi.T @ (w[:, None] * dphi)
    assert np.max(np.abs(stiff - np.diag(lam))) <= 1e-12 * lam[-1]


def _b_starts(disc, phi, rng, count=4):
    # the constant, a +-0.3 perturbation, the projected bubble starts and random starts
    k = phi.shape[1]
    rows = [np.eye(k)[0], np.eye(k)[0] + 0.3 * np.eye(k)[1], np.eye(k)[0] - 0.3 * np.eye(k)[1]]
    rows += [phi.T @ (disc.quad_weights * bub) for bub in fn.bubble_starts(disc)]
    rows += [np.eye(k)[0] + 0.2 * rng.standard_normal(k) for _ in range(count)]
    return np.array(rows)


def _reference_ratio(disc, u):
    # (||u||_{2*}^2 - S_d^2 ||grad u||^2) / ||u||^2 by the discretization's own quadrature
    d = disc.model.dim
    f = DiscreteFunction(disc, u)
    sd2 = cst.euclidean_sobolev_constant(d) ** 2
    top = lp_norm(disc, f, fn.sobolev_conjugate(d)) ** 2 - sd2 * gradient_norm_sq(disc, f)
    return top / inner(disc, f, f)


@pytest.mark.parametrize("disc_name", ["sphere3_disc", "product4_disc"])
def test_b_ratio_gradient_matches_finite_difference(disc_name, request, rng):
    disc = request.getfixturevalue(disc_name)
    basis = _b_basis(disc, _b_search_space(disc)[0])
    k = basis[0].shape[1]
    C = np.eye(k)[0] + 0.2 * rng.standard_normal((3, k))
    ratio, grad = cst._b_ratio_and_grad(C, disc, basis)
    assert ratio.shape == (3,) and grad.shape == (3, k)
    h = 1e-5
    fd = np.array([
        (cst._b_ratio_and_grad(C + h * e, disc, basis)[0]
         - cst._b_ratio_and_grad(C - h * e, disc, basis)[0]) / (2.0 * h)
        for e in np.eye(k)
    ]).T
    for c, r, g, f in zip(C, ratio, grad, fd):
        assert r == pytest.approx(_reference_ratio(disc, basis[0] @ c), rel=1e-12, abs=0.0)
        assert np.max(np.abs(g - f)) <= 1e-7 * np.max(np.abs(g))


@pytest.mark.parametrize("disc_name", ["sphere3_disc", "product4_disc"])
def test_b_ratio_follows_a_change_of_basis(disc_name, request, rng):
    # on Phi T the ratio at c is Phi's at Tc and the gradient is Tᵀ times Phi's: the Gram
    # and stiffness matrices carry the basis, which need not be orthonormal
    disc = request.getfixturevalue(disc_name)
    phi = _b_search_space(disc)[0]
    k = phi.shape[1]
    T = np.eye(k) + 0.1 * rng.standard_normal((k, k))
    assert np.linalg.cond(T) < 10.0
    C = _b_starts(disc, phi, rng)
    ratio, grad = cst._b_ratio_and_grad(C, disc, _b_basis(disc, phi @ T))
    ref, ref_grad = cst._b_ratio_and_grad(C @ T.T, disc, _b_basis(disc, phi))
    assert np.max(np.abs(ratio - ref) / np.abs(ref)) <= 1e-12
    assert np.max(np.abs(grad - ref_grad @ T)) <= 1e-12 * np.max(np.abs(ref_grad @ T))


@pytest.mark.parametrize("disc_name", ["sphere3_disc", "product4_disc"])
def test_b_ratio_stack_matches_one_row_calls(disc_name, request, rng):
    disc = request.getfixturevalue(disc_name)
    basis = _b_basis(disc, _b_search_space(disc)[0])
    C = _b_starts(disc, basis[0], rng)
    ratio, grad = cst._b_ratio_and_grad(C, disc, basis)
    for c, r, g in zip(C, ratio, grad):
        r1, g1 = cst._b_ratio_and_grad(c, disc, basis)
        assert isinstance(r1, float) and g1.shape == c.shape
        assert abs(r - r1) <= 1e-14 * abs(r1)
        assert np.max(np.abs(g - g1)) <= 1e-14 * np.max(np.abs(g1))


def _ascent(disc):
    basis = _b_basis(disc, _b_search_space(disc)[0])
    return basis, lambda C: cst._b_ratio_and_grad(C, disc, basis)


@pytest.mark.parametrize("disc_name", ["sphere3_disc", "product4_disc"])
def test_ascend_never_ends_a_row_below_its_start(disc_name, request, rng):
    disc = request.getfixturevalue(disc_name)
    basis, ratio_and_grad = _ascent(disc)
    C0 = _b_starts(disc, basis[0], rng)
    ends = cst._ascend(ratio_and_grad, C0)
    assert np.all(ratio_and_grad(ends)[0] >= ratio_and_grad(C0)[0])
    # the certified value is the ascended ratio, so it never falls either, not by an ulp
    gains = np.array([cst._b_objective(disc, basis, c1) - cst._b_objective(disc, basis, c0)
                      for c0, c1 in zip(C0, ends)])
    assert np.all(gains >= 0.0)
    assert np.max(gains) > 0.1


def test_b_objective_is_the_ascended_ratio_at_every_end():
    # product d = 4, n = 256, where the eigenbasis' stiffness is diagonal only to 8.7e-14 lam_11
    disc = build(make_product(4), 256)
    basis, ratio_and_grad = _ascent(disc)
    C0 = _b_starts(disc, basis[0], np.random.Generator(np.random.Philox(3)))
    ends = cst._ascend(ratio_and_grad, C0)
    for c, r in zip(ends, ratio_and_grad(ends)[0]):
        assert cst._b_objective(disc, basis, c) == r


@pytest.mark.parametrize("disc_name", ["sphere3_disc", "product4_disc"])
def test_ascend_rows_are_independent_of_the_stack(disc_name, request, rng):
    # bit for bit: every sum is np.add.reduce along a row, never a BLAS product
    disc = request.getfixturevalue(disc_name)
    basis, ratio_and_grad = _ascent(disc)
    C0 = _b_starts(disc, basis[0], rng)
    ends = cst._ascend(ratio_and_grad, C0)
    for i in range(len(C0)):
        assert np.array_equal(cst._ascend(ratio_and_grad, C0[i : i + 1])[0], ends[i])
    assert np.array_equal(cst._ascend(ratio_and_grad, C0[::-1]), ends[::-1])


def test_ascend_zero_and_nan_rows_leave_without_touching_the_others(sphere3_disc, rng):
    basis, ratio_and_grad = _ascent(sphere3_disc)
    C0 = _b_starts(sphere3_disc, basis[0], rng)
    k = basis[0].shape[1]
    mixed = np.vstack([C0[:2], np.zeros(k), C0[2:5], np.full(k, np.nan), C0[5:]])
    ends = cst._ascend(ratio_and_grad, mixed)
    assert np.array_equal(ends[2], np.zeros(k))
    assert np.all(np.isnan(ends[6]))
    assert np.array_equal(np.delete(ends, [2, 6], axis=0), cst._ascend(ratio_and_grad, C0))


def test_b_objective_is_scale_free(sphere3_disc, rng):
    basis = _b_basis(sphere3_disc, _b_search_space(sphere3_disc)[0])
    c = np.eye(basis[0].shape[1])[0] + 0.2 * rng.standard_normal(basis[0].shape[1])
    ref = cst._b_objective(sphere3_disc, basis, c)
    for scale in (1e-12, 1e-8, 1.0, 1e8):
        assert cst._b_objective(sphere3_disc, basis, scale * c) == pytest.approx(ref, rel=1e-14)
    assert cst._b_objective(sphere3_disc, basis, np.zeros_like(c)) == -math.inf


def test_estimate_b_opt_product_matches_nelder_mead_value(product4, product4_disc):
    # value of the earlier Nelder-Mead search from the same starts
    est = cst.estimate_b_opt(product4, product4_disc, budget=4, seed=0)
    assert est == pytest.approx(0.107071803943094, rel=1e-10)


def test_estimate_b_opt_certifies_every_start_and_end(monkeypatch, sphere3, sphere3_disc):
    # the benchmark counts the search's evaluations through this module global
    calls = []
    original = cst._b_objective

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(cst, "_b_objective", counting)
    budget = 2
    cst.estimate_b_opt(sphere3, sphere3_disc, budget=budget, seed=0)
    # one per end, an end never being below its start: constant, four perturbations,
    # three bubbles, `budget` random starts
    assert len(calls) == 1 + 4 + 3 + budget


def test_constants_report_sphere(sphere3_disc):
    rep = cst.constants_report(sphere3_disc, 4.0, b_budget=1)
    assert rep.A_opt_provenance == "closed-form-sphere"
    assert rep.strict_binding


def test_constants_report_product_provenance(product4, product4_disc):
    critical = cst.constants_report(product4_disc, 4.0, b_budget=1)
    assert critical.A_opt_provenance == "product-critical"
    subcrit = cst.constants_report(product4_disc, 3.0, b_budget=1)
    assert subcrit.A_opt_provenance == "spectral-gap"
    assert subcrit.A_opt == pytest.approx(
        1.0 / 2.0 * product4.total_volume ** (2.0 / 3.0 - 1.0), rel=1e-10
    )


@pytest.mark.parametrize("model, d, q", [
    ("sphere", 3, 2.5), ("sphere", 3, 4.0), ("sphere", 3, None),
    ("sphere", 8, 2.5), ("sphere", 8, None),
    ("product", 4, 3.5), ("product", 4, None),
])
def test_default_spec_gives_constants_quotient_one(model, d, q):
    # q = 4 lies above 2* = 8/3 on S^8, so that case is the rejection below
    disc = build(make_sphere(d) if model == "sphere" else make_product(d), 64)
    q = fn.sobolev_conjugate(d) if q is None else q
    spec = cst.default_spec(disc, q)
    assert spec.disc is disc and spec.q == q
    assert abs(fn.quotient(spec, DiscreteFunction(disc, np.ones(disc.n))) - 1.0) <= 1e-14


def test_default_spec_rejects_q_above_the_critical_exponent():
    with pytest.raises(ValueError):
        cst.default_spec(build(make_sphere(8), 64), 4.0)


def test_default_spec_a_factor_scales_a_only(product4_disc):
    base = cst.default_spec(product4_disc, 3.5)
    scaled = cst.default_spec(product4_disc, 3.5, a_factor=1.1)
    assert scaled.A == 1.1 * base.A
    assert scaled.B == base.B and scaled.q == base.q and scaled.disc is base.disc
