import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from sobolev_lab import constants as cst
from sobolev_lab import functionals as fn
from sobolev_lab import optimize as opt
from sobolev_lab import stability as st
from sobolev_lab.discretization import (DiscreteFunction, build, gradient_norm_sq, inner,
                                        laplace_eigenpairs)
from sobolev_lab.geometry import make_product, make_sphere


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
        assert got == want


@pytest.mark.parametrize("model, family", [("sphere", "constants"),
                                           ("sphere", "bubbles_and_constants"),
                                           ("product", "constants")])
@pytest.mark.parametrize("n", [16, 64, 128])
def test_distances_are_mirror_invariant_bit_for_bit(model, family, n):
    # seeded random values, no symmetry at all; at odd n the middle node is its own mirror
    for size in (n, n + 1) if model == "sphere" else (n,):
        disc = build(make_sphere(3) if model == "sphere" else make_product(4), size)
        rng = np.random.Generator(np.random.Philox(n))
        for values in 1.0 + 0.3 * rng.standard_normal((8, size)):
            got = st.distance_to_extremals(DiscreteFunction(disc, values[disc.mirror]), family)
            assert got == st.distance_to_extremals(DiscreteFunction(disc, values), family)


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
    # the latter took 275 bubble_profile calls on these 20 samples, fits at both bracket ends
    # 210, and the search from the grid pass's end slopes 143 with a slope from the formed
    # residual, bounded here with 10 % room; the slope from the Gram pairings takes 155
    real, calls = fn.bubble_profile, []
    monkeypatch.setattr(fn, "bubble_profile", lambda *args: calls.append(1) or real(*args))
    disc = build(make_sphere(3), 64)
    for values in _chebyshev_samples(disc):
        st.distance_to_extremals(DiscreteFunction(disc, values), "bubbles_and_constants")
    assert len(calls) <= 157


def test_distance_to_bubbles_fits_no_grid_node_and_one_distance_per_search(monkeypatch):
    # each root search starts from the grid pass's slopes at its bracket ends, so no interior
    # node of the grid is fitted but b = 0, where an end's slope is fitted (the grid pass reads
    # only rounding there for an even u), and takes the distance from the formed r at most once
    real_profile, real_root, fitted, distances = fn.bubble_profile, st._root, [], []
    monkeypatch.setattr(fn, "bubble_profile", lambda *args: fitted.append(args[1]) or
                        real_profile(*args))

    def recorded(slope, dist2, *ends):
        calls = []
        d2 = real_root(slope, lambda b: calls.append(b) or dist2(b), *ends)
        distances.append(len(calls))
        return d2

    monkeypatch.setattr(st, "_root", recorded)
    disc = build(make_sphere(3), 64)
    for values in _chebyshev_samples(disc):
        st.distance_to_extremals(DiscreteFunction(disc, values), "bubbles_and_constants")
    assert len(distances) >= 20 and max(distances) == 1
    assert not set(fitted) & set(disc._bubble_grid[0][1:-1].tolist()) - {0.0}


def test_distance_to_bubbles_keeps_no_n_by_n_array():
    # the first bubble distance at d = 16, n = 1024 keeps its grid pass on the discretization:
    # G, d_b G, D G and D d_b G, four n x m arrays, and no n x n one
    n = 1024
    st.distance_to_extremals(DiscreteFunction(build(make_sphere(16), 16), np.arange(16.0)),
                             "bubbles_and_constants")  # warm imports and caches outside the trace
    disc = build(make_sphere(16), n)
    u = DiscreteFunction(disc, 1.0 + 0.3 * np.cos(disc.nodes))
    tracemalloc.start()
    try:
        st.distance_to_extremals(u, "bubbles_and_constants")
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 4 * n * len(disc._bubble_grid[0]) * 8 + 2**20


def test_distance_to_bubbles_is_pinned_on_the_batch_recipe():
    # ten samples of the benchmark's recipe on S^3 at n = 64, each nearer a bubble than a
    # constant, against the distances of the search that fitted both bracket ends
    disc = build(make_sphere(3), 64)
    want = [0.9157696429434125, 0.6940209245398653, 0.3626670077543033, 0.9336655226121782,
            0.7067329103611864, 0.3666438000117787, 0.45719701425380377, 0.14655079973085774,
            0.7166292801087747, 0.3227984644324538]
    for values, distance in zip(_chebyshev_samples(disc, 10), want):
        u = DiscreteFunction(disc, values)
        assert st.distance_to_extremals(u, "bubbles_and_constants") == pytest.approx(
            distance, rel=1e-14, abs=0.0)
        assert st.distance_to_extremals(u, "constants") > distance


def _root_and_brentq(slope, dist2, lo, hi, ends=None, root=st._root):
    """(distance^2 from _root, dist2 at brentq's root, the slope evaluations of each); the end
    slopes, which brentq evaluates itself, are _root's arguments, from slope unless given."""
    ours, theirs = [], []
    f_lo, f_hi = (slope(lo), slope(hi)) if ends is None else ends
    d2 = root(lambda b: ours.append(b) or slope(b), dist2, lo, f_lo, hi, f_hi)
    at = brentq(lambda b: theirs.append(b) or slope(b), lo, hi, xtol=1e-300)
    return d2, dist2(at), 2 + len(ours), len(theirs)


@pytest.mark.parametrize("slope", [
    lambda x: math.exp(5.0 * (x - 0.3)) - 1.0,  # smooth
    lambda x: (x - 1.0 / 3.0) ** 3 + 1e-6 * (x - 1.0 / 3.0),  # flat: many bisection steps
    lambda x: -1.0 if x < 0.3 else 1.0,  # a jump
], ids=["smooth", "flat", "jump"])
def test_root_is_brentqs_root(slope):
    # the distance^2 is b, so the distance^2 _root returns is its root
    root, want, ours, theirs = _root_and_brentq(slope, lambda b: b, 0.0, 1.0)
    assert abs(root - want) <= 4 * np.finfo(float).eps * abs(want) and 3 < ours <= theirs


def test_root_compares_signs_not_their_product():
    # the end slopes' product, -0.21e-400, underflows to -0.0
    assert st._root(lambda b: 1e-200 * (b - 0.3), lambda b: b, 0.0, -0.3e-200, 1.0,
                    0.7e-200) == pytest.approx(0.3, rel=1e-15)


def test_root_is_taken_at_the_point_of_smaller_slope():
    # the regula falsi point of the end slopes lands on the root of b - root, where bisection
    # would land at 0.25 only after 0.5, and the search ends there, with the distance there only
    for root in (0.5, 0.25):
        slopes, dists = [], []
        assert st._root(lambda b: slopes.append(b) or b - root, lambda b: dists.append(b) or b,
                        0.0, -root, 1.0, 1.0 - root) == root
        assert slopes == [root] and dists == [root]


def test_root_is_brentqs_root_on_the_envelope_slope(monkeypatch):
    real, evaluations = st._root, []

    def compared(slope, dist2, lo, f_lo, hi, f_hi):
        d2, want, ours, theirs = _root_and_brentq(slope, dist2, lo, hi, (f_lo, f_hi), real)
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
    (lambda x: x, 0),  # an exact zero at b = 0, the end of greater distance
    (lambda x: x + 1.0, 0),  # one sign at both ends
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 1),  # a NaN slope inside
    (lambda x: math.nan if x == 0.0 else x - 0.5, 0),  # a NaN slope at an end
], ids=["zero-end", "one-sign", "nan-inside", "nan-end"])
def test_root_without_a_bracket_is_the_lesser_end_value(slope, calls):
    # distance^2 2 - b: 2 at b = 0, and the lesser 1 at b = 1, both taken only then
    slopes, dists = [], []
    assert st._root(lambda b: slopes.append(b) or slope(b), lambda b: dists.append(b) or 2.0 - b,
                    0.0, slope(0.0), 1.0, slope(1.0)) == 1.0
    assert len(slopes) == calls and dists == [1.0, 0.0]


def test_root_raises_after_100_steps():
    points, dists = [], []
    with pytest.raises(RuntimeError):  # a jump at 0, which 100 halvings of [-1, 1] cannot reach
        st._root(lambda b: points.append(b) or (-1.0 if b <= 0.0 else 1.0),
                 lambda b: dists.append(b) or b, -1.0, -1.0, 1.0, 1.0)
    assert len(points) == 100 and not dists


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
    for bad in (np.inf, np.nan):  # the scan does not check its rows one by one
        with pytest.raises(ValueError, match="finite"):
            st.Ray(ray.base, ray.direction, np.array([0.05, bad]))


def test_default_epsilons():
    eps = st.default_epsilons()
    assert len(eps) == 25
    assert eps[0] == pytest.approx(1e-3)
    assert eps[-1] == pytest.approx(1e-1)


@pytest.mark.parametrize("lo, hi", [(0.1, 0.01), (0.0, 0.1), (-1e-3, 0.1), (1e-3, math.inf),
                                    (math.nan, 0.1), (1e-3, math.nan)])
def test_default_epsilons_rejects_a_window_outside_zero_to_inf(lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before np.geomspace warns on an inf end
        with pytest.raises(ValueError, match=r"need 0 < lo < hi < inf, got lo = "):
            st.default_epsilons(25, lo, hi)


@pytest.mark.parametrize("spec_name", ["subcritical_spec", "critical_product_spec"])
@pytest.mark.parametrize("mode_index", [0, -1, 64])
def test_ray_from_constants_takes_a_non_constant_mode(spec_name, mode_index, request):
    # mode 0 is the constant itself: its tangent part is rounding noise, not a direction
    spec = request.getfixturevalue(spec_name)
    with pytest.raises(ValueError, match=rf"mode_index must be in \[1, 63\], got {mode_index}"):
        st.ray_from_constants(spec, mode_index)
    ray = st.ray_from_constants(spec, 63)
    assert st.w12_norm_sq(spec.disc, ray.direction) == pytest.approx(1.0, rel=1e-12)


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


@pytest.mark.parametrize("d, q", [(3, 4.0), (3, 5.0), (8, 2.5)])
@pytest.mark.parametrize("n", [17, 64, 128, 256])
def test_ray_scan_is_independent_of_the_direction_sign(d, q, n):
    # the eigen-solver's sign of phi_1 is arbitrary, and -phi_1 is phi_1 reflected: the
    # direction is exactly odd, so the two scans measure mirror images, which get the same bits
    spec = cst.default_spec(build(make_sphere(d), n), q)
    ray = st.ray_from_constants(spec)
    R = spec.disc.mirror
    assert np.array_equal(ray.direction.values[R], -ray.direction.values)
    minus = DiscreteFunction(spec.disc, -ray.direction.values)
    flipped = st.Ray(ray.base, minus, ray.epsilons)
    rows = [st.ray_scan(spec, r, "bubbles_and_constants").rows for r in (ray, flipped)]
    for got, want in zip(*rows):
        assert got["distance"] == want["distance"]


@pytest.mark.parametrize("model,d,q,n,family,direction", [
    ("sphere", 3, 4.0, 256, "constants", "mode"),
    ("sphere", 3, 4.0, 256, "bubbles_and_constants", "mode"),
    ("sphere", 8, 2.5, 512, "bubbles_and_constants", "mode"),
    ("sphere", 3, 5.0, 128, "bubbles_and_constants", "random"),
    ("product", 4, None, 256, "constants", "mode"),
    ("product", 8, None, 128, "constants", "random"),
])
def test_ray_scan_matches_per_row_calls(model, d, q, n, family, direction):
    # one stack of rows, one product with D, one quotient_parts call: the per-row values to
    # rounding
    disc = build(make_sphere(d) if model == "sphere" else make_product(d), n)
    spec = cst.default_spec(disc, fn.sobolev_conjugate(d) if q is None else q)
    ray = st.ray_from_constants(spec)
    if direction == "random":  # neither even nor odd
        rng = np.random.Generator(np.random.Philox(n + d))
        phi = np.cos(np.outer(disc.nodes, np.arange(1, 5)) + rng.standard_normal(4)) @ (
            rng.standard_normal(4))
        phi = fn.project_tangent(spec, ray.base, DiscreteFunction(disc, phi))
        phi = DiscreteFunction(disc, phi.values / math.sqrt(st.w12_norm_sq(disc, phi)))
        ray = st.Ray(ray.base, phi, ray.epsilons)
    rows = st.ray_scan(spec, ray, family).rows
    for eps, row in zip(ray.epsilons, rows):
        u = DiscreteFunction(disc, ray.base.values + eps * ray.direction.values)
        assert abs(row["deficit"] - fn.deficit(spec, u)) <= 1e-15
        want = st.distance_to_extremals(u, family)
        assert abs(row["distance"] - want) <= 1e-13 * want


@pytest.mark.parametrize("model,d,q,n,mode_index", [
    ("sphere", 3, 4.0, 64, 1), ("sphere", 8, 2.5, 65, 3), ("product", 4, None, 64, 2),
])
def test_ray_scan_tangency_reads_exactly_0_along_an_odd_mode(model, d, q, n, mode_index,
                                                             monkeypatch):
    # the check sums its pairing node with mirror, as project_tangent does: 0, not noise
    disc = build(make_sphere(d) if model == "sphere" else make_product(d), n)
    spec = cst.default_spec(disc, fn.sobolev_conjugate(d) if q is None else q)
    ray = st.ray_from_constants(spec, mode_index)
    assert np.array_equal(ray.direction.values[disc.mirror], -ray.direction.values)
    seen, real = [], fn.tangent_pairing
    monkeypatch.setattr(fn, "tangent_pairing", lambda *args: seen.append(real(*args)) or seen[-1])
    st.ray_scan(spec, ray)
    assert seen == [0.0]
    x = disc.quad_weights * fn.power_qm1(ray.base.values, spec.q) * ray.direction.values
    assert real(spec, ray.base.values, ray.direction.values) == 0.5 * np.sum(x + x[disc.mirror])


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
    monkeypatch.setattr(st, "_distances", lambda disc, U, DU, family: np.full(len(U), 0.01))
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

    def samples(spec, v, coords):
        return [opt.ReducedFunctionalSample(v.value + (c[0] ** 4 if c[0] >= first else 1.0),
                                            bool(c[0] >= first)) for c in coords]

    monkeypatch.setattr(st, "reduced_functional_stack", samples)
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


@pytest.mark.parametrize("n", [64, 128, 256])
def test_bubble_distance_of_an_even_function_is_finite(n):
    # along an even mode the distance is even in b, so the envelope slope's root is b = 0
    disc = build(make_sphere(3), n)
    mode = laplace_eigenpairs(disc, 3).eigenfunctions[2].values
    for eps in np.geomspace(1e-3, 1e-1, 25):
        u = DiscreteFunction(disc, 1.0 + eps * mode)
        assert 0.0 < st.distance_to_extremals(u, "bubbles_and_constants") < 1.0
