import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg import eigh, lu_factor, lu_solve

from sobolev_lab import constants as cst
from sobolev_lab import functionals as fn
from sobolev_lab import optimize as opt
from sobolev_lab import stability as st
from sobolev_lab.discretization import (
    DiscreteFunction,
    SpectralData,
    build,
    inner,
    laplace_eigenpairs,
)
from sobolev_lab.geometry import make_product, make_sphere
from sobolev_lab.stability import bubble


def _constant(disc, q):
    return fn.normalize(DiscreteFunction(disc, np.ones(disc.n)), q)


def test_certify_constant(subcritical_spec):
    c = _constant(subcritical_spec.disc, subcritical_spec.q)
    assert opt.certify(subcritical_spec, c) < 1e-12


def test_certify_flags_noncritical(subcritical_spec):
    disc = subcritical_spec.disc
    u = fn.normalize(
        DiscreteFunction(disc, 1.0 + 0.3 * np.cos(disc.nodes)), subcritical_spec.q
    )
    assert opt.certify(subcritical_spec, u) > 1e-3


def test_certify_bubble_critical(critical_sphere_spec):
    from sobolev_lab.stability import bubble

    disc = critical_sphere_spec.disc
    u = fn.normalize(bubble(disc, 1.0, 0.5), critical_sphere_spec.q)
    assert opt.certify(critical_sphere_spec, u) < 1e-9


@pytest.mark.parametrize("spec_name", ["subcritical_spec", "critical_product_spec"])
def test_hessian_spectrum_matches_dense_compression(spec_name, request):
    # Z^T H Z by dense products against the shift-invert iteration in hessian_spectrum_at
    spec = request.getfixturevalue(spec_name)
    disc = spec.disc
    phi = laplace_eigenpairs(disc, 3).eigenfunctions[2].values
    u = fn.normalize(DiscreteFunction(disc, 1.0 + 0.2 * phi), spec.q)
    H = fn.hessian_matrix(spec, u)
    Z = fn.tangent_frame(spec, u)
    want = np.linalg.eigvalsh(Z.T @ H @ Z)[:6]
    sd = opt.hessian_spectrum_at(spec, u, 6)
    assert np.max(np.abs(sd.eigenvalues - want)) <= 1e-12 * np.linalg.norm(H, 2)
    assert np.max(sd.residuals) <= 1e-12 * np.linalg.norm(H, 2)
    X = np.column_stack([f.values for f in sd.eigenfunctions])
    tangency = X.T @ (disc.quad_weights * fn.power_qm1(u.values, spec.q))
    assert np.max(np.abs(tangency)) <= 1e-12


def test_hessian_spectrum_k_validation(subcritical_spec):
    # k in [1, n - 1], the tangent space's dimension, at a constant and off one
    disc, n = subcritical_spec.disc, subcritical_spec.disc.n
    c = _constant(disc, subcritical_spec.q)
    u = fn.normalize(DiscreteFunction(disc, 1.0 + 0.2 * np.cos(disc.nodes)), subcritical_spec.q)
    for point in (c, u):
        for k in (0, n):
            with pytest.raises(ValueError, match=rf"k must be in \[1, {n - 1}\], got {k}"):
                opt.hessian_spectrum_at(subcritical_spec, point, k)


def test_kernel_basis_degenerate_constant(subcritical_spec):
    # at (A_opt, beta-compatible B) the first mode is flat: kernel dim >= 1
    spec = subcritical_spec
    c = _constant(spec.disc, spec.q)
    kernel = opt.kernel_basis_at(opt.hessian_spectrum_at(spec, c, 12))
    assert len(kernel) == 1


@pytest.mark.parametrize("near,kernel", [(5e-6, ["zero"]), (1.5e-6, ["zero", "near"])])
def test_kernel_cut_near_an_eigenvalue_warns_and_still_cuts(near, kernel):
    # the scale is 2, so the cut is 2e-6 and `near` is within 10x of it
    spectrum = SpectralData(np.array([1e-12, near, 0.5, 2.0]), ["zero", "near", "a", "b"],
                            np.zeros(4))
    with pytest.warns(opt.ThresholdAmbiguityWarning):
        assert opt.kernel_basis_at(spectrum) == kernel


def test_kernel_empty_off_optimal(sphere3_disc):
    q = 4.0
    spec = cst.default_spec(sphere3_disc, q, 1.1)
    c = _constant(sphere3_disc, q)
    assert opt.kernel_basis_at(opt.hessian_spectrum_at(spec, c, 12)) == []


def test_kernel_empty_off_optimal_at_fine_resolution():
    # the kernel cut must not grow with n: lambda_1 = 0.090 here at every n
    disc = build(make_sphere(3), 1024)
    q = 4.0
    spec = cst.default_spec(disc, q, 1.1)
    assert opt.kernel_basis_at(opt.hessian_spectrum_at(spec, _constant(disc, q), 12)) == []


def test_minimize_from_constant_is_immediate(subcritical_spec):
    cp = opt.minimize(subcritical_spec, DiscreteFunction(
        subcritical_spec.disc, np.ones(subcritical_spec.disc.n)
    ))
    assert cp.converged
    assert cp.iterations == 0
    assert cp.value == pytest.approx(1.0, abs=1e-10)


def test_minimize_recovers_constant_from_perturbation(subcritical_spec, rng):
    disc = subcritical_spec.disc
    sd = laplace_eigenpairs(disc, 6)
    phis = np.column_stack([f.values for f in sd.eigenfunctions])
    init = DiscreteFunction(disc, 1.0 + phis @ (0.2 * rng.standard_normal(6)))
    cp = opt.minimize(subcritical_spec, init)
    assert cp.converged
    assert cp.value <= 1.0 + 1e-10
    assert cp.grad_residual < 1e-8
    assert opt.certify(subcritical_spec, cp.u) < 1e-7


def test_minimize_nondegenerate_kernel_empty(sphere3_disc, rng):
    spec = cst.default_spec(sphere3_disc, 4.0, 1.1)
    init = DiscreteFunction(
        sphere3_disc, 1.0 + 0.1 * np.cos(sphere3_disc.nodes)
    )
    cp = opt.minimize(spec, init)
    assert cp.converged
    assert cp.kernel_dim == 0
    assert cp.hessian_spectrum.eigenvalues[0] > 1e-3


def test_minimize_rejects_zero_init(subcritical_spec):
    z = DiscreteFunction(subcritical_spec.disc, np.zeros(subcritical_spec.disc.n))
    with pytest.raises(ValueError):
        opt.minimize(subcritical_spec, z)


def _reference_minimize(spec, init):
    """minimize's projected-gradient loop on DiscreteFunction objects, then its polish (_polish).

    One trial per round, along the inverse iterate kappa M^{-1} u^{q-1}: a rejected step
    above 1 falls back to 1 for the next round, and a rejected step 1 ends the descent.

    Returns (u, value, grad_residual, iterations, converged).
    """
    disc = spec.disc
    u = fn.normalize(DiscreteFunction(disc, np.abs(init.values)), spec.q)
    M_fact = lu_factor(fn.euler_lagrange_jacobian(spec, u.values, 0.0))
    qval = fn.quotient(spec, u)
    step = 1.0
    iterations = 0
    while iterations < opt.MAX_ITER:
        g = fn.gradient(spec, u)
        if math.sqrt(inner(disc, g, g)) < opt.SWITCH_TOL:
            break
        iterations += 1
        F = fn.euler_lagrange(spec, u.values, 0.0)
        kappa = float(np.sum(disc.quad_weights * u.values * F))
        y = lu_solve(M_fact, fn.power_qm1(u.values, spec.q))
        trial = np.abs(u.values + step * (kappa * y - u.values))
        trial_u = fn.normalize(DiscreteFunction(disc, trial), spec.q)
        trial_q = fn.quotient(spec, trial_u)
        if trial_q <= qval + 1e-14:
            u, qval, step = trial_u, trial_q, min(step * 1.5, 4.0)
        elif step > 1.0:
            step = 1.0
        else:
            break
    polished = opt._polish(spec, u.values, 2.0 * qval)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fn.MixedSignWarning)
        u = fn.normalize(DiscreteFunction(disc, polished), spec.q)
    g = fn.gradient(spec, u)
    grad_residual = math.sqrt(inner(disc, g, g))
    return u, fn.quotient(spec, u), grad_residual, iterations, grad_residual < opt.GRAD_TOL


def _sphere_spec(d, q, n=64, a_factor=1.0):
    return cst.default_spec(build(make_sphere(d), n), q, a_factor)


def _first_mode(disc):
    return laplace_eigenpairs(disc, 2).eigenfunctions[1].values


def _random_start(disc, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    phis = np.column_stack([f.values for f in laplace_eigenpairs(disc, 6).eigenfunctions])
    return 1.0 + phis @ (rng.standard_normal(6) * 0.5 ** np.arange(6))


@pytest.mark.parametrize("case", ["sphere-d3-bubble", "sphere-d8-q2.5", "product-d4", "control"])
def test_minimize_matches_reference_loop(case, critical_product_spec):
    if case == "sphere-d3-bubble":
        # the flat quartic valley: every projected-gradient iteration runs
        spec = _sphere_spec(3, 4.0)
        init, pg_steps = bubble(spec.disc, 1.0, 0.9).values, (opt.MAX_ITER, opt.MAX_ITER)
    elif case == "sphere-d8-q2.5":
        # hands off to the Newton polish after a few steps
        spec = _sphere_spec(8, 2.5)
        init, pg_steps = 1.0 + 0.3 * _first_mode(spec.disc), (1, 20)
    elif case == "product-d4":
        spec = critical_product_spec
        init, pg_steps = 1.0 + 0.3 * _first_mode(spec.disc), (1, 400)
    else:
        spec = _sphere_spec(3, 4.0, a_factor=1.1)
        init, pg_steps = _random_start(spec.disc, 7), (1, 399)
    u, value, grad_residual, iterations, converged = _reference_minimize(
        spec, DiscreteFunction(spec.disc, init)
    )
    assert pg_steps[0] <= iterations <= pg_steps[1]
    cp = opt.minimize(spec, DiscreteFunction(spec.disc, init))
    assert np.array_equal(cp.u.values, u.values)
    assert cp.value == value
    assert cp.grad_residual == grad_residual
    assert cp.iterations == iterations
    assert cp.converged == converged


def test_minimize_rejects_non_finite_gradient(subcritical_spec, monkeypatch):
    real = fn.euler_lagrange
    calls = []

    def poisoned(spec, u, theta):
        calls.append(theta)
        F = real(spec, u, theta)
        return F if len(calls) == 1 else np.full_like(F, np.nan)

    monkeypatch.setattr(fn, "euler_lagrange", poisoned)
    init = bubble(subcritical_spec.disc, 1.0, 0.9)
    with pytest.raises(ValueError, match="non-finite"):
        opt.minimize(subcritical_spec, init)
    # raised by the second gradient of the projected-gradient loop
    assert len(calls) == 2


def test_critical_point_json(subcritical_spec):
    # the fields the minimize report is built from are JSON-ready
    cp = opt.minimize(subcritical_spec, DiscreteFunction(
        subcritical_spec.disc, np.ones(subcritical_spec.disc.n)
    ))
    assert cp.converged is True
    eigenvalues = cp.hessian_spectrum.eigenvalues.tolist()
    assert len(eigenvalues) == 8
    assert all(type(x) is float for x in eigenvalues)
    assert type(cp.kernel_dim) is int and type(cp.iterations) is int


def test_multistart_deterministic(subcritical_spec):
    a = opt.multistart_minimize(subcritical_spec, seed=1)
    b = opt.multistart_minimize(subcritical_spec, seed=1)
    assert a.value == b.value
    assert np.array_equal(a.u.values, b.u.values)


def test_multistart_rejects_negative_extra_starts(subcritical_spec):
    with pytest.raises(ValueError, match="extra_starts must be >= 0, got -1"):
        opt.multistart_minimize(subcritical_spec, extra_starts=-1)


def test_reduced_functional_symmetry_and_quartic(subcritical_spec):
    # the reduced functional along the flat mode is even and quartic-flat
    cp = opt.minimize(subcritical_spec, DiscreteFunction(
        subcritical_spec.disc, np.ones(subcritical_spec.disc.n)
    ))
    assert cp.kernel_dim == 1
    plus = opt.reduced_functional(subcritical_spec, cp, [0.1])
    minus = opt.reduced_functional(subcritical_spec, cp, [-0.1])
    assert plus.inner_converged and minus.inner_converged
    assert plus.value == pytest.approx(minus.value, rel=1e-10)
    gap_1 = plus.value - cp.value
    gap_2 = opt.reduced_functional(subcritical_spec, cp, [0.05]).value - cp.value
    assert gap_1 > 0
    # quartic: halving the coordinate divides the gap by about 16
    assert gap_1 / gap_2 == pytest.approx(16.0, rel=0.15)


def test_reduced_functional_validates_coords(subcritical_spec):
    cp = opt.minimize(subcritical_spec, DiscreteFunction(
        subcritical_spec.disc, np.ones(subcritical_spec.disc.n)
    ))
    for name, coords in [
        ("reduced_functional", [0.1, 0.2]),
        ("reduced_functional", [[0.1]]),
        ("reduced_functional", [math.inf]),
        ("reduced_functional", [math.nan]),
        ("reduced_functional_stack", np.zeros((3, 2))),  # a column per kernel direction
        ("reduced_functional_stack", np.zeros((2, 1, 1))),
        ("reduced_functional_stack", np.zeros(1)),
        ("reduced_functional_stack", [[0.1], [-math.inf]]),
    ]:
        with pytest.raises(ValueError):
            getattr(opt, name)(subcritical_spec, cp, coords)


def test_reduced_functional_requires_kernel(sphere3_disc):
    spec = cst.default_spec(sphere3_disc, 4.0, 1.1)
    cp = opt.minimize(spec, DiscreteFunction(sphere3_disc, np.ones(sphere3_disc.n)))
    with pytest.raises(ValueError):
        opt.reduced_functional(spec, cp, [0.1])


def test_reduced_functional_converges_at_fine_resolution(fine_degenerate_point):
    # the rounding floor of the stationarity residual grows with n
    spec, cp = fine_degenerate_point
    assert cp.kernel_dim == 1
    for t in (0.02, -0.2):
        sample = opt.reduced_functional(spec, cp, [t])
        assert sample.inner_converged
        assert sample.value > cp.value


def _out_of_place_euler_lagrange_jacobian(spec, u, theta):
    J = 2.0 * spec.A * spec.disc.laplace_matrix + 2.0 * spec.B * np.eye(spec.disc.n)
    if theta:
        J -= theta * (spec.q - 1.0) * np.diag(fn.power_qm2(u, spec.q))
    return J


def _out_of_place_hessian_matrix(spec, u):
    sw = np.sqrt(spec.disc.quad_weights)
    J = _out_of_place_euler_lagrange_jacobian(spec, u.values, 2.0 * fn.quotient(spec, u))
    return J * sw[:, None] / sw[None, :]


def _out_of_place_hessian_spectrum_at(spec, u, k):
    """hessian_spectrum_at's solve fed the out-of-place Hessian."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fn, "hessian_matrix", _out_of_place_hessian_matrix)
        return opt.hessian_spectrum_at(spec, u, k)


def _dense_compression(spec, u, k):
    """Bottom-k eigenvalues of Z^T H Z by a dense eigh, Z = tangent_frame, and their functions
    Z c / sqrt(W): Z^T H Z is the trailing block of the reflected (I - 2vv^T) H (I - 2vv^T)."""
    H, v = _out_of_place_hessian_matrix(spec, u), fn.tangent_reflector(spec, u)
    Hv, vH = H @ v, v @ H
    HRH = H - 2.0 * (np.outer(v, vH) + np.outer(Hv, v)) + 4.0 * float(v @ Hv) * np.outer(v, v)
    values, vecs = eigh(HRH[1:, 1:], subset_by_index=[0, k - 1])
    return values, fn.tangent_frame(spec, u) @ vecs / np.sqrt(spec.disc.quad_weights)[:, None]


def _copied_bordered_jacobian(spec, u, theta, K):
    """_bordered_jacobian with the Euler-Lagrange Jacobian formed apart and copied in."""
    qw, n, l, p = spec.disc.quad_weights, spec.disc.n, K.shape[1], fn.power_qm1(u, spec.q)
    J = np.zeros((n + 1 + l, n + 1 + l))
    J[:n, :n] = _out_of_place_euler_lagrange_jacobian(spec, u, theta)
    J[:n, n], J[n, :n] = -p, spec.q * qw * p
    J[:n, n + 1 :], J[n + 1 :, :n] = -K, K.T * qw[None, :]
    return J


def _degenerate_spec(model, d, q, n, a_factor=1.0):
    """The default spec; q None is the critical exponent."""
    disc = build(make_sphere(d) if model == "sphere" else make_product(d), n)
    return cst.default_spec(disc, fn.sobolev_conjugate(d) if q is None else q, a_factor)


DEGENERATE = [("sphere", 3, 4.0), ("sphere", 8, 2.5), ("product", 4, None), ("product", 8, None)]


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("model,d,q", DEGENERATE)
def test_in_place_updates_are_bit_identical(model, d, q, n):
    # the n x n updates are made in place, in the elementwise order of the expressions above
    spec = _degenerate_spec(model, d, q, n)
    u = fn.normalize(DiscreteFunction(spec.disc, 1.0 + 0.2 * _first_mode(spec.disc)), spec.q)
    modes = np.column_stack([f.values for f in laplace_eigenpairs(spec.disc, 3).eigenfunctions])
    for theta, l in ((0.0, 1), (2.0 * fn.quotient(spec, u), 0), (1.5, 2)):
        assert np.array_equal(fn.euler_lagrange_jacobian(spec, u.values, theta),
                              _out_of_place_euler_lagrange_jacobian(spec, u.values, theta))
        K = modes[:, 1 : 1 + l]
        assert np.array_equal(opt._bordered_jacobian(spec, u.values, theta, K),
                              _copied_bordered_jacobian(spec, u.values, theta, K))
    assert np.array_equal(fn.hessian_matrix(spec, u), _out_of_place_hessian_matrix(spec, u))
    v = fn.tangent_reflector(spec, u)
    assert np.array_equal(fn.tangent_frame(spec, u), np.eye(n)[:, 1:] - 2.0 * np.outer(v, v[1:]))
    got = opt.hessian_spectrum_at(spec, u, 6)
    want = _out_of_place_hessian_spectrum_at(spec, u, 6)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    for f, g in zip(got.eigenfunctions, want.eigenfunctions):
        assert np.array_equal(f.values, g.values)


def test_hessian_spectrum_at_peak_memory():
    # the shifted Hessian, factored in place, and |S|: two n x n arrays, and about eight n x p
    # blocks of the iteration, p = k + TANGENT_BLOCK + 1 (measured: 2 n^2 + 7.96 n p doubles)
    n = 1024
    spec = _degenerate_spec("sphere", 3, 4.0, n)
    u = fn.normalize(DiscreteFunction(spec.disc, 1.0 + 0.2 * _first_mode(spec.disc)), spec.q)
    tracemalloc.start()
    try:
        opt.hessian_spectrum_at(spec, u, opt.SPECTRUM_SIZE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    p = opt.SPECTRUM_SIZE + opt.TANGENT_BLOCK + 1
    assert peak <= 2 * n * n * 8 + 8 * n * p * 8 + 2**20


def _matches_the_dense_compression(spec, u, k):
    """hessian_spectrum_at(spec, u, k) and the dense compression's Rayleigh quotients, after
    checking they agree within 1e-12 of the largest and the eigenfunctions are tangent."""
    got = opt.hessian_spectrum_at(spec, u, k)
    Y = np.sqrt(spec.disc.quad_weights)[:, None] * _dense_compression(spec, u, k)[1]
    H = _out_of_place_hessian_matrix(spec, u)
    want = np.einsum("ij,ij->j", Y, H @ Y) / np.einsum("ij,ij->j", Y, Y)
    assert np.max(np.abs(got.eigenvalues - want)) <= 1e-12 * np.max(np.abs(want))
    tangency = got.matrix.T @ (spec.disc.quad_weights * fn.power_qm1(u.values, spec.q))
    assert np.max(np.abs(tangency)) <= 1e-12
    return got.eigenvalues, want


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("b", [0.3, 0.6, 0.9])
def test_tangent_spectrum_of_a_bubble_matches_the_dense_compression(b, n):
    # valued by Rayleigh quotients of the dense eigh's vectors: its own eigenvalues are up to
    # 1.2e-12 of the largest off them at n = 1024, the shift-invert solve's 7.1e-14
    spec = cst.default_spec(build(make_sphere(3), n), 6.0)
    _matches_the_dense_compression(spec, fn.normalize(bubble(spec.disc, 1.0, b), 6.0),
                                   opt.SPECTRUM_SIZE)


def test_tangent_spectrum_below_zero_is_the_bottom_one():
    # A = 0.9 A_opt: one ulp off the constant the first eigenvalue is negative; the shift lies
    # below the spectrum, so the solve returns the bottom k, not the k nearest 0
    spec = _degenerate_spec("sphere", 3, 4.0, 256, 0.9)
    ulp = _constant(spec.disc, spec.q).values.copy()
    ulp[85] = np.nextafter(ulp[85], 2.0)
    got, want = _matches_the_dense_compression(spec, DiscreteFunction(spec.disc, ulp), 6)
    assert got[0] < -0.05 and want[0] < -0.05 and np.all(got[1:] > 0.0)


def test_tangent_spectrum_of_the_whole_tangent_space():
    # n = 16, k = n - 1: the block is the whole tangent space
    spec = _degenerate_spec("sphere", 3, 4.0, 16, 1.1)
    u = fn.normalize(DiscreteFunction(spec.disc, 1.0 + 0.2 * np.cos(spec.disc.nodes)), spec.q)
    _matches_the_dense_compression(spec, u, 15)


def test_tangent_spectrum_raises_at_its_cap(monkeypatch):
    # the b = 0.9 bubble takes more than one solve to reach its rounding floor
    spec = cst.default_spec(build(make_sphere(3), 256), 6.0)
    monkeypatch.setattr(opt, "TANGENT_STEPS", 1)
    with pytest.raises(RuntimeError, match="above its rounding floor after 1 solves"):
        opt.hessian_spectrum_at(spec, fn.normalize(bubble(spec.disc, 1.0, 0.9), 6.0), 8)


@pytest.mark.parametrize("model,d,q,n,a_factor", [
    ("sphere", 3, 4.0, 512, 1.0), ("sphere", 8, 2.5, 1024, 1.0), ("product", 4, None, 512, 1.0),
    ("sphere", 3, 4.0, 1024, 1.1),
])
def test_closed_form_at_a_constant_matches_the_dense_compression(model, d, q, n, a_factor):
    # at a constant the tangent pairs are -Delta's but mode 0, shifted; the dense compression's
    # eigenvalues differ by its solve's rounding (within 1.5e-12 of j(j+d-1)'s, the closed
    # form's Rayleigh quotients within 3e-15)
    spec = _degenerate_spec(model, d, q, n, a_factor)
    c = _constant(spec.disc, spec.q)
    got = opt.hessian_spectrum_at(spec, c, opt.SPECTRUM_SIZE)
    want, want_funcs = _dense_compression(spec, c, opt.SPECTRUM_SIZE)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.eigenvalues - want)) <= 2e-12 * scale
    assert np.max(got.residuals) <= 1e-8 * scale
    X = np.column_stack([f.values for f in got.eigenfunctions])
    tangency = X.T @ (spec.disc.quad_weights * fn.power_qm1(c.values, spec.q))
    assert np.max(np.abs(tangency)) <= 1e-12
    if model == "product":  # the kernel plane (cos_1, sin_1), up to a rotation in the dense one
        sw = np.sqrt(spec.disc.quad_weights)[:, None]
        got_k = sw * X[:, :2]
        want_k = sw * want_funcs[:, :2]
        assert np.max(np.abs(got_k @ got_k.T - want_k @ want_k.T)) <= 1e-10


@pytest.mark.parametrize("d,q,n", [(3, 4.0, 1024), (3, 5.0, 1025), (8, 2.5, 1024), (16, 2.2, 512)])
def test_closed_form_at_a_constant_is_the_exact_spectrum_to_rounding(d, q, n):
    # -Delta's Rayleigh quotients through Dt, not the half-size solves' values (4.2e-13 off)
    spec = _degenerate_spec("sphere", d, q, n)
    c = _constant(spec.disc, spec.q)
    got = opt.hessian_spectrum_at(spec, c, opt.SPECTRUM_SIZE).eigenvalues
    j = np.arange(1, opt.SPECTRUM_SIZE + 1)
    want = fn.shift(spec, 2.0 * spec.A * j * (j + d - 1.0), c.values[:1], 2.0 * fn.quotient(spec, c))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("model,d,q", [("sphere", 3, 4.0), ("product", 4, None)])
def test_only_an_exact_constant_skips_the_tangent_solve(model, d, q, monkeypatch):
    # every value equal: no factorization of size n; one ulp off, the shift-invert solve, whose
    # spectrum the closed form matches
    spec = _degenerate_spec(model, d, q, 64)
    n, sizes, real = spec.disc.n, [], opt.cho_factor
    monkeypatch.setattr(opt, "cho_factor", lambda a, **kw: sizes.append(len(a)) or real(a, **kw))
    c = _constant(spec.disc, spec.q)
    closed = opt.hessian_spectrum_at(spec, c, 6)
    assert n not in sizes
    ulp = c.values.copy()
    ulp[n // 3] = np.nextafter(ulp[n // 3], 2.0)
    moved = fn.normalize(DiscreteFunction(spec.disc, 1.0 + 0.2 * _first_mode(spec.disc)), spec.q)
    for u in (DiscreteFunction(spec.disc, ulp), moved):
        sizes.clear()
        opt.hessian_spectrum_at(spec, u, 6)
        assert sizes == [n]
    near = opt.hessian_spectrum_at(spec, DiscreteFunction(spec.disc, ulp), 6).eigenvalues
    assert np.max(np.abs(closed.eigenvalues - near)) <= 1e-12 * np.max(np.abs(near))


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("d", [4, 8])
def test_product_kernel_at_a_constant_is_cos_then_sin(d, n):
    # the Fourier pair in its order; a dense eigh returned a rotation of it that rounding set,
    # so lojasiewicz_estimate sampled along kernel_basis[0] in a grid-dependent direction
    spec = _degenerate_spec("product", d, None, n)
    cp = opt.minimize(spec, DiscreteFunction(spec.disc, np.ones(n)))
    cos1, sin1 = (f.values for f in cp.kernel_basis)
    R, t = spec.disc.mirror, 2.0 * math.pi * spec.disc.nodes / spec.disc.model.length
    assert np.array_equal(cos1[R], cos1) and np.array_equal(sin1[R], -sin1)
    assert np.max(np.abs(cos1 - cos1[0] * np.cos(t))) <= 1e-14 * cos1[0]
    assert np.max(np.abs(sin1 - cos1[0] * np.sin(t))) <= 1e-14 * cos1[0]


def test_bordered_jacobian_peak_memory():
    # the Euler-Lagrange Jacobian is written into J: no n x n temporary besides J
    n = 1024
    spec = _degenerate_spec("sphere", 3, 4.0, n)
    u = fn.normalize(DiscreteFunction(spec.disc, 1.0 + 0.2 * _first_mode(spec.disc)), spec.q)
    K = u.values[:, None]
    tracemalloc.start()
    try:
        J = opt._bordered_jacobian(spec, u.values, 2.0 * fn.quotient(spec, u), K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= J.nbytes + 2**20


@pytest.fixture(scope="module", params=["sphere-d3-q4", "product-d4-q2star"])
def degenerate_point_128(request):
    """(spec, critical point at the constant) of a degenerate spec at n = 128."""
    model, d, q = ("sphere", 3, 4.0) if request.param == "sphere-d3-q4" else ("product", 4, None)
    spec = _degenerate_spec(model, d, q, 128)
    return spec, opt.minimize(spec, DiscreteFunction(spec.disc, np.ones(128)))


def _reference_sample(spec, cp, coords):
    """reduced_functional by damped Newton with a fresh Jacobian at every step."""
    K = np.column_stack([f.values for f in cp.kernel_basis])
    target = K.T @ (spec.disc.quad_weights * cp.u.values) + coords
    u, _, _, converged = opt._bordered_newton(
        spec, cp.u.values + K @ coords, 2.0 * cp.value, K, target
    )
    assert converged
    return fn.quotient(spec, DiscreteFunction(spec.disc, u))


def _coords(cp, t):
    coords = np.zeros(cp.kernel_dim)
    coords[0] = t
    return coords


def _counting(monkeypatch, name):
    calls = []
    real = getattr(opt, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(opt, name, counted)
    return calls


def test_chord_samples_match_full_newton(degenerate_point_128, monkeypatch):
    # the Lojasiewicz samples, each on the one factorization at the point
    spec, cp = degenerate_point_128
    cp = dataclasses.replace(cp)  # no cached factorization
    samples = [sign * t for t in st.LOJASIEWICZ_SAMPLING for sign in (1.0, -1.0)]
    jacobians = _counting(monkeypatch, "_bordered_jacobian")
    chord = [opt.reduced_functional(spec, cp, _coords(cp, c)) for c in samples]
    assert len(jacobians) == 1
    monkeypatch.undo()
    for c, sample in zip(samples, chord):
        assert sample.inner_converged
        want = _reference_sample(spec, cp, _coords(cp, c)) - cp.value
        assert abs(sample.value - cp.value - want) <= 1e-6 * want


def test_chord_falls_back_to_newton_far_from_the_point(monkeypatch):
    spec = _degenerate_spec("sphere", 3, 4.0, 128)
    cp = opt.minimize(spec, DiscreteFunction(spec.disc, np.ones(128)))
    opt.reduced_functional(spec, cp, [0.02])
    for t in (1.2, -1.2):
        jacobians = _counting(monkeypatch, "_bordered_jacobian")
        sample = opt.reduced_functional(spec, cp, [t])
        assert jacobians  # damped Newton took over
        monkeypatch.undo()
        assert sample.inner_converged
        assert sample.value == pytest.approx(_reference_sample(spec, cp, [t]), abs=1e-10)


def _kernel_rows(cp, ts):
    coords = np.zeros((len(ts), cp.kernel_dim))
    coords[:, 0] = ts
    return coords


def test_stack_matches_one_row_calls(degenerate_point_128):
    spec, cp = degenerate_point_128
    ts = [sign * t for t in st.LOJASIEWICZ_SAMPLING for sign in (1.0, -1.0)]
    stack = opt.reduced_functional_stack(spec, cp, _kernel_rows(cp, ts))
    rows = [opt.reduced_functional(spec, cp, _coords(cp, t)) for t in ts]
    assert [s.inner_converged for s in stack] == [s.inner_converged for s in rows]
    assert all(s.inner_converged for s in stack)
    for s, r in zip(stack, rows):
        assert abs(s.value - r.value) <= 1e-14


def test_stack_sends_only_the_far_rows_to_newton(monkeypatch):
    # the rows at +/-1.2 leave the chord stack for damped Newton, once each, and make every
    # Jacobian; the rows at +/-0.02 end in chord steps
    spec = _degenerate_spec("sphere", 3, 4.0, 128)
    cp = opt.minimize(spec, DiscreteFunction(spec.disc, np.ones(128)))
    opt.reduced_functional(spec, cp, [0.02])  # factors the chord Jacobian
    ts = [0.02, 1.2, -0.02, -1.2]
    jacobians = _counting(monkeypatch, "_bordered_jacobian")
    fallbacks = []
    real = opt._bordered_newton

    def logged(spec, u, theta, K, target, *args):
        before = len(jacobians)
        out = real(spec, u, theta, K, target, *args)
        fallbacks.append((float(target[0]), len(jacobians) - before))
        return out

    monkeypatch.setattr(opt, "_bordered_newton", logged)
    samples = opt.reduced_functional_stack(spec, cp, _kernel_rows(cp, ts))
    monkeypatch.undo()
    base = float(cp.kernel_basis[0].values @ (spec.disc.quad_weights * cp.u.values))
    assert [target - base for target, _ in fallbacks] == pytest.approx([1.2, -1.2])
    assert all(made >= 1 for _, made in fallbacks)
    assert sum(made for _, made in fallbacks) == len(jacobians)
    for t, sample in zip(ts, samples):
        assert sample.inner_converged
        assert sample.value == pytest.approx(_reference_sample(spec, cp, [t]), abs=1e-10)


def test_lojasiewicz_estimate_solves_once_per_round(degenerate_point_128, monkeypatch):
    # the 20 samples share each chord round, so the estimate takes as many solves as the
    # longest one-row call (11 on the sphere and 6 on the product, not 136 and 92)
    spec, cp = degenerate_point_128
    solves = _counting(monkeypatch, "lu_solve")
    st.lojasiewicz_estimate(spec, cp)
    stacked, rounds = len(solves), []
    for t in st.LOJASIEWICZ_SAMPLING:
        for sign in (1.0, -1.0):
            solves.clear()
            opt.reduced_functional(spec, cp, _coords(cp, sign * t))
            rounds.append(len(solves))
    assert stacked == max(rounds)


def test_lojasiewicz_estimate_factors_once_per_point(degenerate_point_128, monkeypatch):
    spec, cp = degenerate_point_128
    cp = dataclasses.replace(cp)
    factorizations = _counting(monkeypatch, "lu_factor")
    first = st.lojasiewicz_estimate(spec, cp)
    assert len(factorizations) == 1
    assert st.lojasiewicz_estimate(spec, cp) == first
    assert len(factorizations) == 1


def test_chord_factorization_is_never_stale(monkeypatch):
    spec = _degenerate_spec("sphere", 3, 4.0, 128)
    cp = opt.minimize(spec, DiscreteFunction(spec.disc, np.ones(128)))
    factorizations = _counting(monkeypatch, "lu_factor")
    opt.reduced_functional(spec, cp, [0.1])
    opt.reduced_functional(spec, cp, [0.2])
    assert len(factorizations) == 1
    # an equal spec that is not the same object, then a second point
    opt.reduced_functional(dataclasses.replace(spec), cp, [0.1])
    assert len(factorizations) == 2
    opt.reduced_functional(spec, dataclasses.replace(cp), [0.1])
    assert len(factorizations) == 3
    # a stale factorization (of spec) would change the bits of other's value
    other = dataclasses.replace(spec, A=1.01 * spec.A)
    opt.reduced_functional(spec, cp, [0.1])
    reused = opt.reduced_functional(other, cp, [0.1])
    fresh = opt.reduced_functional(other, dataclasses.replace(cp), [0.1])
    assert reused.inner_converged and reused.value == fresh.value


@pytest.mark.parametrize("swap", [False, True])
def test_multistart_ranks_converged_then_value_then_residual(swap):
    worse = SimpleNamespace(value=2.0, grad_residual=1e-14, converged=True)

    def ranked(a, b):
        return opt._best([b, a, worse] if swap else [a, b, worse])

    # values 2e-16 apart are one value: the better-converged result wins
    loose = SimpleNamespace(value=0.9999999999999998, grad_residual=2.2e-9, converged=True)
    tight = SimpleNamespace(value=1.0, grad_residual=2.2e-13, converged=True)
    assert ranked(loose, tight) is tight
    # an unconverged result loses to a converged one, whatever its value
    stuck = SimpleNamespace(value=0.5, grad_residual=1e-3, converged=False)
    assert ranked(stuck, loose) is loose
    # values further apart than RANK_RTOL rank by value
    higher = SimpleNamespace(value=1.0 + 1e-9, grad_residual=1e-14, converged=True)
    assert ranked(higher, loose) is loose


@pytest.mark.parametrize("model,d,q", [("sphere", 3, 4.0), ("product", 4, None)])
def test_minimize_from_the_constant_factors_nothing(model, d, q, monkeypatch):
    # the constant is the minimum of a degenerate spec: it leaves the descent in round 0,
    # before the preconditioner is factored
    spec = _degenerate_spec(model, d, q, 64)
    factorizations = _counting(monkeypatch, "lu_factor")
    cp = opt.minimize(spec, _constant(spec.disc, spec.q))
    assert factorizations == [] and cp.iterations == 0 and cp.converged


def _newton_calls(monkeypatch):
    """(K's column count, max_iter, converged) of each _bordered_newton call, in order."""
    calls = []
    real = opt._bordered_newton

    def logged(spec, u, theta, K, target, max_iter=opt.NEWTON_MAX, mu=None):
        out = real(spec, u, theta, K, target, max_iter, mu)
        calls.append((K.shape[1], max_iter, out[3]))
        return out

    monkeypatch.setattr(opt, "_bordered_newton", logged)
    return calls


def test_multistart_factors_once_and_builds_one_spectrum(subcritical_spec, monkeypatch):
    # one descent factorization, one spectrum for the winner and one kernel detection for each
    # row whose first polish steps miss the floor: the 8 starts that are not the constant
    factorizations = _counting(monkeypatch, "lu_factor")
    spectra = _counting(monkeypatch, "hessian_spectrum_at")
    calls = _newton_calls(monkeypatch)
    cp = opt.multistart_minimize(subcritical_spec, seed=0, extra_starts=4)
    stalled = [call for call in calls if call == (0, opt.STALL_STEPS, False)]
    assert len(factorizations) == 1
    assert len(stalled) == 8
    assert len(spectra) == 1 + len(stalled)
    assert cp.kernel_dim == 1 and len(cp.hessian_spectrum.eigenvalues) == opt.SPECTRUM_SIZE


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("model,d,q,start", [
    ("sphere", 3, 4.0, "bubble-0.9"), ("sphere", 8, 2.5, "first-mode"),
    ("product", 4, None, "first-mode"),
])
def test_minimize_converges_at_degenerate_minima(model, d, q, start, n, monkeypatch):
    # plain Newton creeps along the kernel from these starts and used to end unconverged;
    # one or two kernel corrections reach the floor
    spec = _degenerate_spec(model, d, q, n)
    disc = spec.disc
    init = bubble(disc, 1.0, 0.9).values if start == "bubble-0.9" else 1.0 + 0.3 * _first_mode(disc)
    calls = _newton_calls(monkeypatch)
    cp = opt.minimize(spec, DiscreteFunction(disc, init))
    kernel_solves = [l for l, _, _ in calls if l]
    assert 1 <= len(kernel_solves) - 1 <= 2  # a solve at the start, then one per correction
    assert set(kernel_solves) == {cp.kernel_dim}
    assert cp.converged and cp.grad_residual < opt.GRAD_TOL
    assert abs(cp.value - 1.0) <= 1e-12


def test_polish_falls_back_to_plain_newton(monkeypatch):
    # near a nondegenerate minimum with a small eigenvalue (A = 1.01 A_opt) mu is linear in c,
    # so the corrections for a triple root miss the floor: plain Newton runs as without them
    spec = _degenerate_spec("sphere", 3, 4.0, 64, 1.01)
    u = fn.normalize(bubble(spec.disc, 1.0, 0.9), spec.q).values
    theta = 2.0 * fn.quotient(spec, DiscreteFunction(spec.disc, u))
    calls = _newton_calls(monkeypatch)
    polished = opt._polish(spec, u, theta)
    assert [l for l, _, _ in calls if l] == [1] * (1 + opt.KERNEL_STEPS)
    monkeypatch.undo()
    plain, converged = opt._bordered_newton(spec, u, theta, np.zeros((64, 0)), np.zeros(0),
                                            opt.POLISH_NEWTON_MAX)[::3]
    assert converged and np.array_equal(polished, plain)


def test_bordered_newton_stops_when_no_damped_step_lowers_the_residual(monkeypatch):
    # from a solved point with the rounding floor at 0, the residual is all rounding: Newton
    # stops at its first step that no halving makes lower, well before max_iter
    spec = _degenerate_spec("sphere", 3, 4.0, 64, 1.1)
    u = fn.normalize(bubble(spec.disc, 1.0, 0.3), spec.q).values
    theta = 2.0 * fn.quotient(spec, DiscreteFunction(spec.disc, u))
    K, target = np.zeros((64, 0)), np.zeros(0)
    u, theta, _, converged = opt._bordered_newton(spec, u, theta, K, target)
    assert converged
    monkeypatch.setattr(opt, "FLOOR_FACTOR", 0.0)
    jacobians = []
    real = opt._bordered_jacobian
    monkeypatch.setattr(opt, "_bordered_jacobian", lambda *a: jacobians.append(1) or real(*a))
    start = opt._bordered_residual(spec, np.append(u, theta), K, target)[1]
    u2, theta2, _, converged = opt._bordered_newton(spec, u, theta, K, target)
    assert not converged and 1 <= len(jacobians) < opt.NEWTON_MAX
    assert opt._bordered_residual(spec, np.append(u2, theta2), K, target)[1] <= start


def _lockstep_starts(disc):
    """The constant (a critical point), the first-mode start and the bubble starts."""
    return [np.ones(disc.n), 1.0 + 0.3 * _first_mode(disc), *fn.bubble_starts(disc)]


def _pooled(monkeypatch, spec, starts):
    """The polished results of _minimize_starts(spec, starts), one per start, as ranked."""
    pools = []
    real = opt._best
    monkeypatch.setattr(opt, "_best", lambda results: pools.append(results) or real(results))
    opt._minimize_starts(spec, starts)
    monkeypatch.setattr(opt, "_best", real)
    return pools[0]


def test_lockstep_rows_match_single_starts(monkeypatch):
    spec = _sphere_spec(3, 4.0, a_factor=1.5)
    starts = _lockstep_starts(spec.disc) + [_random_start(spec.disc, seed) for seed in (7, 8)]
    stacked = _pooled(monkeypatch, spec, starts)
    assert len(stacked) == len(starts)
    for start, cp in zip(starts, stacked):
        single = opt.minimize(spec, DiscreteFunction(spec.disc, start))
        assert cp.iterations == single.iterations
        assert abs(cp.value - single.value) <= 1e-12
        assert cp.converged
    # only the winner gets a spectrum
    assert sum(cp.hessian_spectrum is not None for cp in stacked) == 1
    # the constant leaves at once, the others descend for different numbers of rounds
    assert stacked[0].iterations == 0
    assert len({cp.iterations for cp in stacked[1:]}) > 1


def test_lockstep_rows_leave_alone(monkeypatch):
    # the constant leaves at iteration 0 and the peaked b = 0.9 bubble when its first trial,
    # at step 1, raises Q; the other rows descend as they do without them
    spec = _sphere_spec(3, 4.0, a_factor=1.5)
    starts = _lockstep_starts(spec.disc)
    want = _pooled(monkeypatch, spec, starts[1:-1])
    real = fn.quotient_parts

    def rejecting(spec, U, DU):  # every stacked trial with max/min > 3 is rejected
        num, norm = real(spec, U, DU)
        if U.ndim == 2:
            num = np.where(U.max(axis=1) > 3.0 * U.min(axis=1), np.inf, num)
        return num, norm

    monkeypatch.setattr(fn, "quotient_parts", rejecting)
    got = _pooled(monkeypatch, spec, starts)
    assert [got[0].iterations, got[-1].iterations] == [0, 1]
    for cp, single in zip(got[1:-1], want):
        assert cp.iterations == single.iterations > 1
        assert abs(cp.value - single.value) <= 1e-12
    # alone, the failing row ends the descent
    assert opt.minimize(spec, DiscreteFunction(spec.disc, starts[-1])).iterations == 1


def _inverse_iterate(spec, u):
    """kappa M^{-1} u^{q-1}, M = 2A(-Delta) + 2B and kappa = <u, M u>: the descent's step 1."""
    kappa = float(np.sum(spec.disc.quad_weights * u * fn.euler_lagrange(spec, u, 0.0)))
    M = lu_factor(fn.euler_lagrange_jacobian(spec, u, 0.0))
    return kappa * lu_solve(M, fn.power_qm1(u, spec.q))


def test_a_rejected_step_falls_back_to_the_inverse_iterate(monkeypatch):
    # the first trial (step 1) is accepted and the second (step 1.5) is rejected: the row keeps
    # its iterate, and the next round tries step 1 from it, the inverse iterate
    spec = _sphere_spec(3, 4.0, a_factor=1.5)
    real = fn.quotient_parts
    trials = []

    def parts(spec, U, DU):
        num, norm = real(spec, U, DU)
        if U.ndim == 2:
            trials.append(U[0].copy())
            if len(trials) == 2:
                num = np.full_like(num, np.inf)
        return num, norm

    monkeypatch.setattr(fn, "quotient_parts", parts)
    cp = opt.minimize(spec, DiscreteFunction(spec.disc, 1.0 + 0.3 * _first_mode(spec.disc)))
    want = fn.normalize(DiscreteFunction(spec.disc, _inverse_iterate(spec, trials[0])), spec.q)
    assert np.allclose(trials[2], want.values, rtol=1e-13, atol=0.0)
    # one trial per round, the rejected one included
    assert cp.iterations == len(trials) > 3 and cp.converged


INVERSE_ITERATION_CASES = [("sphere", 3, 4.0), ("sphere", 8, 2.5), ("product", 4, None)]


@pytest.fixture(scope="module")
def low_mode_specs():
    """Each case's spec at n = 64 and its Laplace modes 1..5, scaled to max |phi| = 1."""
    specs = {}
    for case in INVERSE_ITERATION_CASES:
        spec = _degenerate_spec(*case, 64)
        modes = laplace_eigenpairs(spec.disc, 6).eigenfunctions[1:]
        phis = np.column_stack([f.values for f in modes])
        specs[case] = spec, phis / np.abs(phis).max(axis=0)
    return specs


@settings(max_examples=60, deadline=None)
@given(
    case=hst.sampled_from(INVERSE_ITERATION_CASES),
    a_factor=hst.floats(min_value=0.5, max_value=3.0),
    coeffs=hst.lists(hst.floats(min_value=-0.19, max_value=0.19), min_size=5, max_size=5),
)
def test_inverse_iterate_never_raises_the_quotient(low_mode_specs, case, a_factor, coeffs):
    # with ||u||_q = 1, f = u^{q-1} and v = M^{-1} f: Cauchy-Schwarz in the M pairing and
    # Hoelder give Q(v) <= Q(u), at every A and B > 0, so the descent's step 1 is never rejected
    # but for rounding.  u = 1 + sum c_k phi_k is positive, as sum |c_k| < 1.
    spec, phis = low_mode_specs[case]
    spec = dataclasses.replace(spec, A=a_factor * spec.A)
    u = fn.normalize(DiscreteFunction(spec.disc, 1.0 + phis @ np.array(coeffs)), spec.q)
    v = _inverse_iterate(spec, u.values)
    assert np.min(v) > 0.0  # so the descent's absolute value leaves it as it is
    bound = fn.quotient(spec, u) * (1.0 + 8.0 * np.finfo(float).eps)
    assert fn.quotient(spec, DiscreteFunction(spec.disc, v)) <= bound


# multistart_minimize(spec, 7, extra_starts=4) with a descent per start: the winner's kernel
# dimension and its values at n = 64 and n = 128, by model, d, q (None: 2*) and A factor
START_SCAN = {
    ("sphere", 3, 4.0, 1.0): (1, (1.0, 1.0)),
    ("sphere", 3, 4.0, 1.1): (0, (0.9999999999999998, 1.0)),
    ("sphere", 3, 4.0, 1.5): (0, (0.9999999999999998, 1.0)),
    ("sphere", 8, 2.5, 1.0): (1, (1.0000000000000002, 1.0)),
    ("sphere", 8, 2.5, 1.1): (0, (1.0000000000000002, 1.0)),
    ("sphere", 8, 2.5, 1.5): (0, (1.0, 1.0)),
    ("product", 4, None, 1.0): (2, (1.0000000000000004, 1.0000000000000002)),
    ("product", 4, None, 1.1): (0, (1.0000000000000004, 1.0000000000000002)),
    ("product", 4, None, 1.5): (0, (1.0000000000000004, 1.0000000000000002)),
    ("product", 8, None, 1.0): (2, (0.9999999999999999, 1.0)),
    ("product", 8, None, 1.1): (0, (0.9999999999999999, 1.0)),
    ("product", 8, None, 1.5): (0, (0.9999999999999999, 1.0)),
}


def test_start_scan(monkeypatch):
    # 180 starts, all converged, in at most 6,500 descent rounds in all; only rows at A_opt
    # take kernel steps
    pools = []
    real = opt._best
    monkeypatch.setattr(opt, "_best", lambda results: pools.append(results) or real(results))
    calls = _newton_calls(monkeypatch)
    for (model, d, q, a), (kernel_dim, values) in START_SCAN.items():
        for n, value in zip((64, 128), values):
            spec = _degenerate_spec(model, d, q, n, a)
            before = len(calls)
            cp = opt.multistart_minimize(spec, 7, extra_starts=4)
            assert cp.kernel_dim == kernel_dim, (model, d, q, a, n)
            assert cp.value == pytest.approx(value, rel=opt.RANK_RTOL, abs=0.0)
            if a != 1.0:
                assert not any(l for l, _, _ in calls[before:]), (model, d, q, a, n)
    assert sum(len(pool) for pool in pools) == 180
    assert sum(cp.converged for pool in pools for cp in pool) == 180
    assert sum(cp.iterations for pool in pools for cp in pool) <= 6500


def _off_constant_spec_and_start(n=32):
    spec = cst.default_spec(build(make_sphere(3), n), 4.0, a_factor=1.1)
    return spec, bubble(spec.disc, 1.0, 0.5)


def test_bordered_newton_falls_back_to_least_squares(monkeypatch):
    spec, start = _off_constant_spec_and_start()
    u = fn.normalize(start, spec.q).values
    plain = (np.zeros((spec.disc.n, 0)), np.zeros(0))
    want = opt._bordered_newton(spec, u, 2.0, *plain)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    got = opt._bordered_newton(spec, u, 2.0, *plain)
    assert want[3] and got[3]
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-10)
    assert got[1] == pytest.approx(want[1], rel=1e-10)


def test_descent_reports_a_failed_triangular_solve(monkeypatch):
    spec, start = _off_constant_spec_and_start()
    monkeypatch.setattr(opt, "get_lapack_funcs", lambda names, arrays: (lambda lu, piv, b: (b, 2),))
    with pytest.raises(ValueError, match="getrs failed with info 2"):
        opt.minimize(spec, start)


def test_descent_rejects_a_trial_off_the_constraint(monkeypatch):
    spec, start = _off_constant_spec_and_start()
    quotient_parts = fn.quotient_parts

    def norm_doubled(spec, U, DU):
        num, norm = quotient_parts(spec, U, DU)
        return num, 2.0 * norm

    monkeypatch.setattr(fn, "quotient_parts", norm_doubled)
    with pytest.raises(ValueError, match="trial is not L\\^q-normalized"):
        opt.minimize(spec, start)


def test_random_starts_are_one_seeded_stream(sphere3_disc):
    phis = laplace_eigenpairs(sphere3_disc, 6).matrix
    three = opt.random_starts(phis, 5, 3)
    assert len(three) == 3 and opt.random_starts(phis, 5, 0) == []
    assert np.array_equal(opt.random_starts(phis, 5, 1)[0], three[0])  # count takes a prefix
    assert not np.array_equal(three[0], three[1])
    assert np.array_equal(three[0], _random_start(sphere3_disc, 5))  # 1 + Phi c, c_j ~ 0.5^j
