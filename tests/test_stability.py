import json
import math

import numpy as np
import pytest

from sobolev_lab import constants as cst
from sobolev_lab import functionals as fn
from sobolev_lab import optimize as opt
from sobolev_lab import stability as st
from sobolev_lab.discretization import DiscreteFunction
from sobolev_lab.functionals import QuotientSpec


def test_bubble_validation(sphere3_disc, product4_disc):
    with pytest.raises(ValueError):
        st.bubble(product4_disc, 1.0, 0.5)
    with pytest.raises(ValueError):
        st.bubble(sphere3_disc, 0.0, 0.5)
    with pytest.raises(ValueError):
        st.bubble(sphere3_disc, 1.0, 1.0)


def test_bubble_profile(sphere3_disc):
    u = st.bubble(sphere3_disc, 2.0, 0.5)
    want = 2.0 * (1.0 - 0.5 * np.cos(sphere3_disc.nodes)) ** -0.5
    assert np.allclose(u.values, want)


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


def test_distance_family_validation(sphere3_disc):
    u = DiscreteFunction(sphere3_disc, np.ones(sphere3_disc.n))
    with pytest.raises(ValueError):
        st.distance_to_extremals(u, "nonsense")
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


def test_ray_scan_degenerate_slope_and_report(subcritical_spec):
    ray = st.ray_from_constants(subcritical_spec)
    rep = st.ray_scan(subcritical_spec, ray, "constants")
    assert rep.classification == "degenerate"
    assert rep.fitted_slope == pytest.approx(4.0, abs=0.1)
    assert len(rep.rows) == 25
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == 1
    assert payload["metadata"]["family"] == "constants"
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "epsilon,deficit,distance,q_value,in_fit_window"
    assert len(csv_text.splitlines()) == 26


def test_ray_scan_nondegenerate_control(sphere3_disc):
    q = 4.0
    spec = QuotientSpec(
        A=1.1 * cst.a_opt_sphere_closed_form(3, q),
        B=sphere3_disc.model.total_volume ** (2.0 / q - 1.0),
        q=q,
        disc=sphere3_disc,
    )
    rep = st.ray_scan(spec, st.ray_from_constants(spec), "constants")
    assert rep.classification == "nondegenerate"
    assert rep.fitted_slope == pytest.approx(2.0, abs=0.1)


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


def test_lojasiewicz_estimate_quartic(subcritical_spec):
    cp = opt.minimize(subcritical_spec, DiscreteFunction(
        subcritical_spec.disc, np.ones(subcritical_spec.disc.n)
    ))
    est = st.lojasiewicz_estimate(subcritical_spec, cp)
    assert est == pytest.approx(4.0, abs=0.1)


def test_lojasiewicz_estimate_quartic_at_fine_resolution(fine_degenerate_point):
    spec, cp = fine_degenerate_point
    assert abs(st.lojasiewicz_estimate(spec, cp) - 4.0) < 0.1


def test_lojasiewicz_validates_direction(subcritical_spec):
    cp = opt.minimize(subcritical_spec, DiscreteFunction(
        subcritical_spec.disc, np.ones(subcritical_spec.disc.n)
    ))
    with pytest.raises(ValueError):
        st.lojasiewicz_estimate(subcritical_spec, cp, direction=5)


def test_classify_aggregation():
    assert st.classify([4.0, 3.9]) == "degenerate"
    assert st.classify([2.0, 2.1]) == "nondegenerate"
    assert st.classify([2.0, 4.0]) == "inconclusive"
    assert st.classify([math.nan]) == "inconclusive"
    assert st.classify([]) == "inconclusive"
