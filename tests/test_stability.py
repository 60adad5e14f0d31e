import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from sobolev_lab import constants as cst
from sobolev_lab import functionals as fn
from sobolev_lab import optimize as opt
from sobolev_lab import stability as st
from sobolev_lab.discretization import DiscreteFunction, build, gradient_norm_sq, inner
from sobolev_lab.geometry import make_sphere


def test_bubble_validation(sphere3_disc, product4_disc):
    with pytest.raises(ValueError):
        st.bubble(product4_disc, 1.0, 0.5)
    with pytest.raises(ValueError):
        st.bubble(sphere3_disc, 0.0, 0.5)
    for b in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            st.bubble(sphere3_disc, 1.0, b)


def test_bubble_profile(sphere3_disc):
    u = st.bubble(sphere3_disc, 2.0, 0.5)
    want = 2.0 * (1.0 - 0.5 * np.cos(sphere3_disc.nodes)) ** -0.5
    assert np.allclose(u.values, want)
    # b < 0 is the bubble at the south pole, from the same formula; it is the reflection of
    # the one at -b to rounding only, as the nodes' cosines are mirror-antisymmetric to 1 ulp
    south = st.bubble(sphere3_disc, 2.0, -0.5)
    assert np.array_equal(south.values, 2.0 * (1.0 + 0.5 * np.cos(sphere3_disc.nodes)) ** -0.5)
    mirrored = u.values[sphere3_disc.mirror]
    assert np.all(np.abs(south.values - mirrored) <= 4 * np.finfo(float).eps * np.abs(mirrored))


@pytest.mark.parametrize("d", [3, 8])
def test_bubble_starts_are_the_bubbles(d, product4_disc):
    disc = build(make_sphere(d), 64)
    got = fn.bubble_starts(disc)
    want = [st.bubble(disc, 1.0, b).values for b in fn.BUBBLE_STARTS]
    assert len(got) == len(want) == 3
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert fn.bubble_starts(product4_disc) == []


@pytest.mark.parametrize("disc_name", ["sphere3_disc", "product4_disc"])
def test_w12_norm_sq_matches_the_quadrature_helpers(disc_name, request, rng):
    disc = request.getfixturevalue(disc_name)
    for _ in range(10):
        mixed = DiscreteFunction(disc, rng.standard_normal(disc.n))
        positive = DiscreteFunction(disc, 1.0 + 0.5 * np.tanh(mixed.values))
        for u in (mixed, positive):
            assert st.w12_norm_sq(disc, u) == gradient_norm_sq(disc, u) + inner(disc, u, u)


def test_bubbles_have_zero_deficit_at_critical_spec(critical_sphere_spec):
    disc = critical_sphere_spec.disc
    for b in (0.2, 0.5, 0.8):
        assert abs(fn.deficit(critical_sphere_spec, st.bubble(disc, 1.0, b))) < 1e-10


def test_distance_to_constants_closed_form(sphere3_disc):
    # u = c + a phi with phi a mean-zero eigenfunction: distance is the
    # W^{1,2} fraction carried by the non-constant part
    from sobolev_lab.discretization import laplace_eigenpairs

    sd = laplace_eigenpairs(sphere3_disc, 2)
    phi = sd.eigenfunctions[1]
    lam = sd.eigenvalues[1]
    c, a = 2.0, 0.3
    u = DiscreteFunction(sphere3_disc, c + a * phi.values)
    vol = sphere3_disc.model.total_volume
    want = math.sqrt(
        a**2 * (1.0 + lam) / (c**2 * vol + a**2 * (1.0 + lam))
    )
    assert st.distance_to_extremals(u, "constants") == pytest.approx(want, rel=1e-10)


def test_distance_to_bubbles_vanishes_on_bubbles(sphere3_disc):
    u = st.bubble(sphere3_disc, 1.7, 0.6)
    assert st.distance_to_extremals(u, "bubbles_and_constants") < 1e-6


def _golden_min(dist_at, lo=1e-6, hi=1.0 - 1e-6):
    # golden section in b over [lo, hi], 80 steps: by default the library's one-pole
    # search before it covered both poles
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = dist_at(x1), dist_at(x2)
    for _ in range(80):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = dist_at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = dist_at(x2)
    return min(f1, f2)


def _bubble_dist_at(u):
    """b -> distance of u to the line through st.bubble(disc, 1, b), from the public helpers."""
    disc = u.disc
    norm_u = math.sqrt(st.w12_norm_sq(disc, u))
    du = disc.diff_matrix @ u.values

    def dist_at(b):
        g = st.bubble(disc, 1.0, b)
        dg = disc.diff_matrix @ g.values
        ug = float(np.sum(disc.quad_weights * (du * dg + u.values * g.values)))
        a = ug / st.w12_norm_sq(disc, g)
        diff = DiscreteFunction(disc, u.values - a * g.values)
        return math.sqrt(st.w12_norm_sq(disc, diff)) / norm_u

    return dist_at


# b = tanh(s) on 240 evenly spaced s out to |b| = 1 - 1e-6, a step 8x finer than the
# library's at d = 3 and 2.7x at d = 8; an even count keeps b = 0, no bubble, off the grid
REFERENCE_GRID = np.tanh(np.linspace(-1.0, 1.0, 240) * math.atanh(1.0 - 1e-6))


def _reference_distance(u):
    """Distance to bubbles at both poles and to constants, by a global search in b.

    The distance is tabulated on REFERENCE_GRID, and a golden section runs over
    the two cells around each grid minimum; the grid ends are candidates too.
    """
    disc = u.disc
    norm_u = math.sqrt(st.w12_norm_sq(disc, u))
    mean = disc.integrate(u.values) / disc.model.total_volume
    d_const = math.sqrt(st.w12_norm_sq(disc, DiscreteFunction(disc, u.values - mean))) / norm_u
    dist_at = _bubble_dist_at(u)
    f = [dist_at(b) for b in REFERENCE_GRID]
    best = min(f[0], f[-1])
    for i in range(1, len(f) - 1):
        if f[i] <= min(f[i - 1], f[i + 1]):
            best = min(best, _golden_min(dist_at, REFERENCE_GRID[i - 1], REFERENCE_GRID[i + 1]))
    return min(d_const, best)


def _chebyshev_samples(disc, count=20):
    """Smooth radial functions like the benchmark's: decaying Chebyshev series plus an offset."""
    rng = np.random.Generator(np.random.Philox(9))
    coeffs = rng.standard_normal((count, 10)) * 0.5 ** np.arange(10)
    coeffs[:, 0] += 0.01 * rng.standard_normal(count)
    return coeffs @ np.polynomial.chebyshev.chebvander(np.cos(disc.nodes), 9).T


def _extended_bubble_distance(disc, values):
    """Distance to the bubbles alone, every step in long double precision."""
    ld = np.longdouble
    D, w = disc.diff_matrix.astype(ld), disc.quad_weights.astype(ld)
    cos_t, e = np.cos(disc.nodes.astype(ld)), (ld(2) - disc.model.dim) / 2
    u = values.astype(ld)
    du = D @ u
    norm_u = np.sqrt(np.sum(w * (du * du + u * u)))

    def dist_at(b):
        g = (1 - ld(b) * cos_t) ** e
        dg = D @ g
        a = np.sum(w * (du * dg + u * g)) / np.sum(w * (dg * dg + g * g))
        r = u - a * g
        dr = D @ r
        return np.sqrt(np.sum(w * (dr * dr + r * r))) / norm_u

    return float(_golden_min(dist_at))


@pytest.mark.parametrize("d,n", [(3, 64), (8, 256)])
def test_distance_to_bubbles_matches_reference(d, n):
    disc = build(make_sphere(d), n)
    for values in _chebyshev_samples(disc):
        u = DiscreteFunction(disc, values)
        got = st.distance_to_extremals(u, "bubbles_and_constants")
        assert got == pytest.approx(_reference_distance(u), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [3, 8])
def test_distance_to_bubbles_builds_its_grid_pass_once(d):
    # the grid pass is kept on the discretization, and a call on it gives the bits of a first call
    family = "bubbles_and_constants"
    disc = build(make_sphere(d), 64)
    samples = _chebyshev_samples(disc, 5)
    assert disc._bubble_grid is None
    cached = [st.distance_to_extremals(DiscreteFunction(disc, samples[0]), family)]
    grid_pass = disc._bubble_grid
    assert grid_pass is not None
    cached += [st.distance_to_extremals(DiscreteFunction(disc, v), family) for v in samples[1:]]
    assert disc._bubble_grid is grid_pass
    for values, got in zip(samples, cached):
        fresh = build(make_sphere(d), 64)
        assert np.array_equal(got, st.distance_to_extremals(DiscreteFunction(fresh, values), family))


@pytest.mark.parametrize("d,n", [(3, 64), (8, 256)])
def test_distance_to_bubbles_is_reflection_invariant(d, n):
    # the family holds the reflection t -> pi - t of each of its bubbles
    disc = build(make_sphere(d), n)
    family = "bubbles_and_constants"
    for values in _chebyshev_samples(disc):
        got = st.distance_to_extremals(DiscreteFunction(disc, values[disc.mirror]), family)
        want = st.distance_to_extremals(DiscreteFunction(disc, values), family)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_distance_to_bubbles_finds_the_lower_of_two_local_minima():
    # on this sample a golden section over each pole's half of the b range stops at a
    # local minimum 6 % above the global one
    disc = build(make_sphere(3), 64)
    coeffs = [-0.2011, 0.0112, -0.5698, 0.0329, -0.0684, 0.0021, 0.0052, 0.0032, -0.0023, -0.002]
    u = DiscreteFunction(disc, np.polynomial.chebyshev.chebval(np.cos(disc.nodes), coeffs))
    dist_at = _bubble_dist_at(u)
    per_pole = min(_golden_min(dist_at), _golden_min(dist_at, -1.0 + 1e-6, -1e-6))
    got = st.distance_to_extremals(u, "bubbles_and_constants")
    assert got < 0.95 * per_pole
    assert got == pytest.approx(_reference_distance(u), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [3, 5, 8])
def test_distance_to_bubbles_is_rounding_level_on_bubbles(d):
    disc = build(make_sphere(d), 128)
    # at |b| <= 0.01 the bracket of the nearest bubble straddles b = 0
    for b in (0.3, 0.6, 0.9, -0.3, -0.6, -0.9, 1e-4, -1e-4, 0.01, -0.01):
        assert st.distance_to_extremals(st.bubble(disc, 2.0, b), "bubbles_and_constants") <= 1e-13


@pytest.mark.parametrize("d", [3, 8])
def test_distance_to_bubbles_is_rounding_level_on_the_search_grid(d):
    # a bubble whose b is a node of the search grid puts a zero of the slope in b on
    # that node, where the grid pass and the one-point slope may disagree in sign
    disc = build(make_sphere(d), 64)
    steps = math.ceil(st.BUBBLE_STEPS * max(1.0, (d - 2) / 2))
    for b in np.tanh(np.linspace(0.0, st.BUBBLE_END, steps + 1))[1:-1]:
        for pole in (b, -b):
            u = st.bubble(disc, 1.3, pole)
            assert st.distance_to_extremals(u, "bubbles_and_constants") <= 1e-13
            assert pole in disc._bubble_grid[0]
    assert len(disc._bubble_grid[0]) == 1 + 2 * steps


def test_distance_to_bubbles_fits_fewer_bubbles_than_two_half_searches(monkeypatch):
    # one search over b in (-1, 1) instead of one over [0, 1) on u and on its reflection:
    # the latter took 275 bubble_profile calls on these 20 samples
    real, calls = fn.bubble_profile, []
    monkeypatch.setattr(fn, "bubble_profile", lambda *args: calls.append(1) or real(*args))
    disc = build(make_sphere(3), 64)
    for values in _chebyshev_samples(disc):
        st.distance_to_extremals(DiscreteFunction(disc, values), "bubbles_and_constants")
    assert len(calls) < 275


def _root_and_brentq(f, lo, hi, root=st._root):
    """(distance^2 from _root, f's distance^2 at brentq's root, the evaluations of each)."""
    ours, theirs = [], []
    d2 = root(lambda b: ours.append(b) or f(b), lo, hi)
    at = brentq(lambda b: theirs.append(b) or f(b)[0], lo, hi, xtol=1e-300)
    return d2, f(at)[1], len(ours), len(theirs)


@pytest.mark.parametrize("slope", [
    lambda x: math.exp(5.0 * (x - 0.3)) - 1.0,  # smooth
    lambda x: (x - 1.0 / 3.0) ** 3 + 1e-6 * (x - 1.0 / 3.0),  # flat: many bisection steps
    lambda x: -1.0 if x < 0.3 else 1.0,  # a jump
], ids=["smooth", "flat", "jump"])
def test_root_is_brentqs_root(slope):
    # f returns (slope, b), so the distance^2 _root returns is its root
    root, want, ours, theirs = _root_and_brentq(lambda b: (slope(b), b), 0.0, 1.0)
    assert abs(root - want) <= 4 * np.finfo(float).eps * abs(want) and 3 < ours <= theirs


def test_root_compares_signs_not_their_product():
    # the end slopes' product, -0.09e-400, underflows to -0.0
    assert st._root(lambda b: (1e-200 * (b - 0.3), b), 0.0, 1.0) == pytest.approx(0.3, rel=1e-15)


def test_root_is_taken_at_the_point_of_smaller_slope():
    # the first bisection step lands on the root of b - 0.5, and the search ends there
    points = []
    assert st._root(lambda b: points.append(b) or (b - 0.5, b), 0.0, 1.0) == 0.5
    assert points == [0.0, 1.0, 0.5]


def test_root_is_brentqs_root_on_the_envelope_slope(monkeypatch):
    real, evaluations = st._root, []

    def compared(f, lo, hi):
        d2, want, ours, theirs = _root_and_brentq(f, lo, hi, real)
        # distances: distance^2 itself scatters by up to 1.7e-15 within 6 ulps of the root in b
        assert math.sqrt(d2) == pytest.approx(math.sqrt(want), rel=1e-15, abs=0.0)
        evaluations.append((ours, theirs))
        return d2

    monkeypatch.setattr(st, "_root", compared)
    disc = build(make_sphere(3), 64)
    for values in _chebyshev_samples(disc, 5):
        st.distance_to_extremals(DiscreteFunction(disc, values), "bubbles_and_constants")
    ours, theirs = np.sum(evaluations, axis=0)
    assert len(evaluations) >= 5 and ours <= theirs


@pytest.mark.parametrize("slope,calls", [
    (lambda x: x, 2),  # an exact zero at b = 0, the end of greater distance
    (lambda x: x + 1.0, 2),  # one sign at both ends
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 3),  # a NaN slope inside
    (lambda x: math.nan if x == 0.0 else x - 0.5, 2),  # a NaN slope at an end
], ids=["zero-end", "one-sign", "nan-inside", "nan-end"])
def test_root_without_a_bracket_is_the_lesser_end_value(slope, calls):
    # distance^2 2 - b: 2 at b = 0, and the lesser 1 at b = 1
    points = []
    assert st._root(lambda b: points.append(b) or (slope(b), 2.0 - b), 0.0, 1.0) == 1.0
    assert len(points) == calls


def test_root_raises_after_100_steps():
    points = []
    with pytest.raises(RuntimeError):  # a jump at 0, which 100 halvings of [-1, 1] cannot reach
        st._root(lambda b: points.append(b) or (-1.0 if b <= 0.0 else 1.0, b), -1.0, 1.0)
    assert len(points) == 2 + 100


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
)
def test_distance_to_bubbles_is_accurate_near_constants(subcritical_spec):
    # the first rows of a ray scan from constants, where the distance is ~eps^2;
    # a residual derivative taken as Du - a Dg instead of D r is off by up to 1e-8
    ray = st.ray_from_constants(subcritical_spec)
    disc = subcritical_spec.disc
    for eps in ray.epsilons[:6]:
        values = ray.base.values + eps * ray.direction.values
        got = st.distance_to_extremals(DiscreteFunction(disc, values), "bubbles_and_constants")
        assert got == pytest.approx(_extended_bubble_distance(disc, values), rel=2e-9, abs=0.0)


def test_distance_family_validation(sphere3_disc, product4_disc):
    u = DiscreteFunction(sphere3_disc, np.ones(sphere3_disc.n))
    with pytest.raises(ValueError):
        st.distance_to_extremals(u, "nonsense")
    on_product = DiscreteFunction(product4_disc, 1.0 + 0.1 * np.cos(product4_disc.nodes))
    with pytest.raises(ValueError, match="sphere-radial"):
        st.distance_to_extremals(on_product, "bubbles_and_constants")
    with pytest.raises(ValueError):
        st.distance_to_extremals(DiscreteFunction(sphere3_disc, np.zeros(sphere3_disc.n)), "constants")


def test_ray_validation(subcritical_spec):
    ray = st.ray_from_constants(subcritical_spec)
    with pytest.raises(ValueError):
        st.Ray(ray.base, ray.direction, np.array([0.1, 0.05]))
    with pytest.raises(ValueError):
        st.Ray(ray.base, ray.direction, np.array([-0.1, 0.05]))


def test_default_epsilons():
    eps = st.default_epsilons()
    assert len(eps) == 25
    assert eps[0] == pytest.approx(1e-3)
    assert eps[-1] == pytest.approx(1e-1)


def test_ray_direction_tangent_unit(subcritical_spec):
    ray = st.ray_from_constants(subcritical_spec)
    disc = subcritical_spec.disc
    pairing = float(np.sum(
        disc.quad_weights
        * fn.power_qm1(ray.base.values, subcritical_spec.q)
        * ray.direction.values
    ))
    assert abs(pairing) < 1e-12
    assert st.w12_norm_sq(disc, ray.direction) == pytest.approx(1.0, rel=1e-12)


def test_fit_loglog_recovers_power_law():
    x = np.geomspace(1e-3, 1e-1, 20)
    slope, stderr = st.fit_loglog(x, 2.7 * x**3.5)
    assert slope == pytest.approx(3.5, abs=1e-12)
    assert stderr < 1e-12


def test_fit_loglog_is_nan_when_all_x_are_equal():
    slope, stderr = st.fit_loglog(np.full(5, 0.01), np.geomspace(1e-4, 1e-2, 5))
    assert math.isnan(slope) and math.isnan(stderr)


def test_fit_loglog_stderr_is_nan_for_two_points():
    # two points fit the line exactly and leave no residual to estimate the error from
    slope, stderr = st.fit_loglog(np.array([0.01, 0.02]), np.array([1e-4, 1.7e-3]))
    assert slope == pytest.approx(math.log2(17.0), rel=1e-12)
    assert math.isnan(stderr)


def test_fit_loglog_stderr_is_nan_when_x_is_constant_up_to_rounding():
    # log x differs in the last bits only: the least-squares problem has rank one, so
    # there is no slope either, and polyfit, which would warn RankWarning, is not called
    x = np.array([0.01, np.nextafter(0.01, 1.0), 0.01 * (1.0 + 16 * 1.1e-16)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, stderr = st.fit_loglog(x, np.array([1e-4, 2e-4, 3e-4]))
    assert math.isnan(slope) and math.isnan(stderr)


def test_ray_scan_degenerate_slope_and_report(subcritical_spec):
    ray = st.ray_from_constants(subcritical_spec)
    rep = st.ray_scan(subcritical_spec, ray, "constants")
    assert rep.classification == "degenerate"
    assert rep.fitted_slope == pytest.approx(4.0, abs=0.1)
    assert len(rep.rows) == 25


def test_ray_scan_nondegenerate_control(sphere3_disc):
    spec = cst.default_spec(sphere3_disc, 4.0, 1.1)
    rep = st.ray_scan(spec, st.ray_from_constants(spec), "constants")
    assert rep.classification == "nondegenerate"
    assert rep.fitted_slope == pytest.approx(2.0, abs=0.1)


def test_ray_scan_is_independent_of_the_direction_sign(subcritical_spec):
    # the eigen-solver's sign of phi_1 is arbitrary, and -phi_1 is phi_1 reflected
    ray = st.ray_from_constants(subcritical_spec)
    minus = DiscreteFunction(subcritical_spec.disc, -ray.direction.values)
    flipped = st.Ray(ray.base, minus, ray.epsilons)
    rows = [st.ray_scan(subcritical_spec, r, "bubbles_and_constants").rows for r in (ray, flipped)]
    for got, want in zip(*rows):
        assert got["distance"] == pytest.approx(want["distance"], rel=1e-12, abs=0.0)


def test_ray_scan_rejects_non_tangent_direction(subcritical_spec):
    ray = st.ray_from_constants(subcritical_spec)
    bad = st.Ray(
        ray.base,
        DiscreteFunction(subcritical_spec.disc, np.ones(subcritical_spec.disc.n)),
        ray.epsilons,
    )
    with pytest.raises(ValueError):
        st.ray_scan(subcritical_spec, bad, "constants")


def test_ray_scan_inconclusive_below_noise_floor(subcritical_spec):
    # all samples inside the noise floor: too few window points to fit
    ray = st.ray_from_constants(
        subcritical_spec, epsilons=np.geomspace(1e-8, 1e-7, 6)
    )
    rep = st.ray_scan(subcritical_spec, ray, "constants")
    assert rep.classification == "inconclusive"
    assert math.isnan(rep.fitted_slope)
    assert not any(r["in_fit_window"] for r in rep.rows)


def test_ray_scan_inconclusive_when_distances_are_equal(subcritical_spec, monkeypatch):
    monkeypatch.setattr(st, "distance_to_extremals", lambda u, family: 0.01)
    ray = st.ray_from_constants(subcritical_spec, epsilons=np.geomspace(1e-2, 1e-1, 5))
    rep = st.ray_scan(subcritical_spec, ray, "constants")
    assert sum(r["in_fit_window"] for r in rep.rows) == 5
    assert rep.classification == "inconclusive"
    assert math.isnan(rep.fitted_slope)


def test_lojasiewicz_estimate_quartic(subcritical_spec):
    cp = opt.minimize(subcritical_spec, DiscreteFunction(
        subcritical_spec.disc, np.ones(subcritical_spec.disc.n)
    ))
    est = st.lojasiewicz_estimate(subcritical_spec, cp)
    assert est == pytest.approx(4.0, abs=0.1)


def test_lojasiewicz_estimate_quartic_at_fine_resolution(fine_degenerate_point):
    spec, cp = fine_degenerate_point
    assert abs(st.lojasiewicz_estimate(spec, cp) - 4.0) < 0.1


def test_lojasiewicz_estimate_needs_a_kernel(subcritical_spec):
    u = DiscreteFunction(subcritical_spec.disc, np.ones(subcritical_spec.disc.n))
    point = opt.CriticalPoint(u=u, value=1.0, grad_residual=0.0, converged=True, iterations=0)
    with pytest.raises(ValueError, match="no kernel"):
        st.lojasiewicz_estimate(subcritical_spec, point)


@pytest.mark.parametrize("converged,want", [(10, 4.0), (5, 4.0), (4, math.nan)])
def test_lojasiewicz_estimate_fits_the_converged_samples_only(subcritical_spec, monkeypatch,
                                                              converged, want):
    # a quartic reduced functional whose inner solve converges at the `converged` largest
    # t > 0 only; an unconverged sample reads 1 above the critical value
    first = st.LOJASIEWICZ_SAMPLING[-converged]

    def sample(spec, v, coords):
        ok = bool(coords[0] >= first)
        return opt.ReducedFunctionalSample(v.value + (coords[0] ** 4 if ok else 1.0), ok)

    monkeypatch.setattr(st, "reduced_functional", sample)
    u = DiscreteFunction(subcritical_spec.disc, np.ones(subcritical_spec.disc.n))
    point = opt.CriticalPoint(u=u, value=1.0, grad_residual=0.0, converged=True, iterations=0,
                              kernel_dim=1)
    assert st.lojasiewicz_estimate(subcritical_spec, point) == pytest.approx(want, nan_ok=True)


def test_classify_aggregation():
    for slope in (4.0, 3.9, 2.6):
        assert st.classify(slope) == "degenerate"
    for slope in (2.0, 2.1, 1.6):
        assert st.classify(slope) == "nondegenerate"
    for slope in (1.4, math.nan):
        assert st.classify(slope) == "inconclusive"
