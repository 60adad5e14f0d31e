"""One-shot reproduction suite: every headline check as a pass/fail case.

Each case returns a record {name, passed, value, detail, seconds}; the CLI
renders these as a table and the test suite asserts them individually.
Slope tolerances follow a resolution schedule: +/-0.05 at the default
resolutions, widened to +/-0.10 when run with n < 256 (the epsilon window
is asymptotic and coarse grids raise the quadrature noise floor).
"""

from __future__ import annotations

import inspect
import math
import time

import numpy as np

from . import constants as cst
from . import functionals as fn
from . import optimize as opt
from . import stability as st
from .discretization import DiscreteFunction, build, laplace_eigenpairs
from .functionals import QuotientSpec, sobolev_conjugate
from .geometry import make_product, make_sphere

SLOPE_TOL_FULL = 0.05
SLOPE_TOL_COARSE = 0.10
DEFICIT_CHUNK_ROWS = 1_000  # rows per batch of the deficit check; bounds its memory


def _slope_tol(n: int) -> float:
    return SLOPE_TOL_FULL if n >= 256 else SLOPE_TOL_COARSE


def _case(name, fn_check):
    t0 = time.perf_counter()
    try:
        passed, value, detail = fn_check()
    except Exception as exc:  # noqa: BLE001 - the table must never abort mid-suite
        passed, value, detail = False, math.nan, f"error: {exc!r}"
    return {
        "name": name,
        "passed": bool(passed),
        "value": value,
        "detail": detail,
        "seconds": time.perf_counter() - t0,
    }


def _sphere_subcritical_spec(n: int) -> QuotientSpec:
    return cst.default_spec(build(make_sphere(3), n), 4.0)


def check_spectral_gap(n: int = 256):
    worst = 0.0
    for d in (3, 4, 5):
        disc = build(make_sphere(d), n)
        lam = cst.spectral_gap(disc)
        worst = max(worst, abs(lam - d) / d)
    return worst < 1e-8, worst, "max relative error of second eigenvalue vs d"


def check_constant_consistency(n: int = 128):
    worst = 0.0
    for d in (3, 4, 5):
        disc = build(make_sphere(d), n)
        for q in (2.5, 3.0, 4.0):
            if q > sobolev_conjugate(d) + 1e-12:
                continue
            got = cst.a_opt_spectral_gap(disc, q)
            want = cst.a_opt_sphere_closed_form(d, q)
            worst = max(worst, abs(got - want) / want)
    return worst < 1e-10, worst, "max relative error spectral-gap vs closed form"


def check_strict_binding_range():
    ok = all(cst.check_strict_binding(d) for d in range(3, 11))
    return ok, float(ok), "strict binding for d in 3..10"


def check_bubble_extremality(n: int = 256):
    model = make_sphere(3)
    disc = build(model, n)
    spec = QuotientSpec(
        A=cst.euclidean_sobolev_constant(3) ** 2,
        B=cst.beta_constant(model),
        q=6.0,
        disc=disc,
    )
    worst = max(abs(fn.deficit(spec, st.bubble(disc, 1.0, b))) for b in fn.BUBBLE_STARTS)
    starts = ", ".join(map(str, fn.BUBBLE_STARTS))
    return worst < 1e-6, worst, f"max |Q(bubble) - 1| over b in {{{starts}}}"


def _fd_quotients(spec, u, du, phi, dphi, steps):
    """Q(u + e phi) for each e in steps, in long double, from du = D u and dphi = D phi.

    A second difference of a near-zero second variation loses about
    eps_mach / e^2 of Q to rounding; long double keeps that far below the
    tolerance.  D(u + e phi) = du + e dphi, so du and dphi can be float64.
    The power is exp(q log|v|), several times faster than powl and
    accurate to a few long-double ulps.
    """
    w = spec.disc.quad_weights.astype(np.longdouble)
    e = np.asarray(steps, dtype=np.longdouble)[:, None]
    v = u + e * phi
    dv = du + e * dphi
    num = spec.A * ((dv * dv) @ w) + spec.B * ((v * v) @ w)
    return num / (np.exp(spec.q * np.log(np.abs(v))) @ w) ** (2.0 / spec.q)


def check_variation_formulas(n: int = 96):
    worst_g, worst_h = 0.0, 0.0
    specs = [
        _sphere_subcritical_spec(n),
        cst.default_spec(build(make_product(4), n if n % 2 == 0 else n + 1), 3.5),
    ]
    # Richardson-combined central differences at steps h and 2h
    h1, h2 = 5e-5, 5e-4
    for spec in specs:
        disc = spec.disc
        D = disc.diff_matrix
        phis = laplace_eigenpairs(disc, 8).matrix
        rng = np.random.Generator(np.random.Philox(2024))
        for _ in range(50):
            coeffs = rng.standard_normal(8) * 0.4 ** np.arange(8)
            u = fn.normalize(
                DiscreteFunction(disc, np.abs(2.0 + phis @ coeffs)), spec.q
            )
            du = D @ u.values
            g = fn.gradient(spec, u)
            for _k in range(2):
                dir_c = rng.standard_normal(8) * 0.4 ** np.arange(8)
                phi = DiscreteFunction(disc, phis @ dir_c)
                pairing = float(np.sum(disc.quad_weights * g.values * phi.values))
                qp, qm, qp2, qm2 = _fd_quotients(
                    spec, u.values, du, phi.values, D @ phi.values, (h1, -h1, 2 * h1, -2 * h1)
                )
                fd = float((8.0 * (qp - qm) - (qp2 - qm2)) / (12.0 * h1))
                scale = max(abs(pairing), abs(fd), 1e-8)
                worst_g = max(worst_g, abs(pairing - fd) / scale)
                # Hessian along the tangent-projected direction
                tphi = fn.project_tangent(spec, u, phi)
                h = fn.hessian_form(spec, u, tphi, tphi)
                q0, qp, qm, qp2, qm2 = _fd_quotients(
                    spec, u.values, du, tphi.values, D @ tphi.values,
                    (0.0, h2, -h2, 2 * h2, -2 * h2),
                )
                rich = float((16.0 * (qp + qm - 2 * q0) - (qp2 + qm2 - 2 * q0)) / (12.0 * h2**2))
                scale = max(abs(h), abs(rich), 1e-8)
                worst_h = max(worst_h, abs(h - rich) / scale)
    ok = worst_g < 1e-5 and worst_h < 1e-4
    return ok, max(worst_g, worst_h), f"grad err {worst_g:.2e}, hess err {worst_h:.2e}"


def check_second_variation_cancellation(n: int = 128):
    spec = _sphere_subcritical_spec(n)
    c = fn.normalize(DiscreteFunction(spec.disc, np.ones(spec.disc.n)), spec.q)
    # the dense compression Z^T H Z: hessian_spectrum_at at a constant is -Delta's spectrum
    Z = fn.tangent_frame(spec, c)
    lam1, lam2 = np.linalg.eigvalsh(Z.T @ fn.hessian_matrix(spec, c) @ Z)[:2]
    ok = abs(lam1) < 1e-8 and lam2 > 1e-2
    return ok, abs(lam1), f"|lambda_1| = {abs(lam1):.2e}, lambda_2 = {lam2:.4f}"


def check_sphere_degenerate_slope(n: int = 256):
    spec = _sphere_subcritical_spec(n)
    ray = st.ray_from_constants(spec)
    rep = st.ray_scan(spec, ray, "constants")
    tol = _slope_tol(n)
    ok = abs(rep.fitted_slope - 4.0) <= tol
    return ok, rep.fitted_slope, f"slope {rep.fitted_slope:.4f}, tol +/-{tol}"


def check_product_degenerate_slope(n: int = 128):
    spec = cst.default_spec(build(make_product(4), n), 4.0)
    ray = st.ray_from_constants(spec)
    rep = st.ray_scan(spec, ray, "constants")
    tol = _slope_tol(max(n, 256))  # Fourier rule resolves the circle mode exactly
    ok = abs(rep.fitted_slope - 4.0) <= tol
    return ok, rep.fitted_slope, f"slope {rep.fitted_slope:.4f}, tol +/-{tol}"


def check_nondegenerate_control(n: int = 128):
    spec = cst.default_spec(build(make_sphere(3), n), 4.0, a_factor=1.1)
    disc = spec.disc
    ray = st.ray_from_constants(spec)
    rep = st.ray_scan(spec, ray, "constants")
    phis = laplace_eigenpairs(disc, 6).matrix
    rng = np.random.Generator(np.random.Philox(7))
    init = DiscreteFunction(disc, 1.0 + phis @ (0.3 * rng.standard_normal(6)))
    cp = opt.minimize(spec, init)
    tol = _slope_tol(max(n, 256))  # quadratic signal is far above the noise floor
    ok = abs(rep.fitted_slope - 2.0) <= tol and cp.kernel_dim == 0 and cp.converged
    return ok, rep.fitted_slope, (
        f"slope {rep.fitted_slope:.4f}, kernel_dim {cp.kernel_dim}, "
        f"grad residual {cp.grad_residual:.2e}"
    )


def check_lojasiewicz(n: int = 128):
    spec = _sphere_subcritical_spec(n)
    cp = opt.minimize(spec, DiscreteFunction(spec.disc, np.ones(spec.disc.n)))
    est = st.lojasiewicz_estimate(spec, cp)
    ok = abs(est - 4.0) <= 0.1
    return ok, est, f"reduced-functional exponent {est:.4f}"


def check_b_estimator(n: int = 64):
    model_s = make_sphere(3)
    disc_s = build(model_s, n)
    bs = cst.estimate_b_opt(model_s, disc_s, budget=4, seed=0)
    beta_s = cst.beta_constant(model_s)
    model_p = make_product(4)
    disc_p = build(model_p, n)
    bp = cst.estimate_b_opt(model_p, disc_p, budget=4, seed=0)
    beta_p = cst.beta_constant(model_p)
    ok = bs >= beta_s - 1e-10 and bp >= beta_p - 1e-10 and abs(bs - beta_s) < 1e-6
    return ok, bs, (
        f"S3: est {bs:.12f} vs beta {beta_s:.12f}; product: est {bp:.12f} "
        f">= beta {beta_p:.12f}"
    )


def check_deficit_nonnegativity(n: int = 64, count: int = 10_000):
    spec = _sphere_subcritical_spec(n)
    disc = spec.disc
    phis = laplace_eigenpairs(disc, 10).matrix
    rng = np.random.Generator(np.random.Philox(42))
    worst = math.inf
    # fn.deficits on chunks of samples; a row holds one sample's 10 coefficients, then its offset
    for first in range(0, count, DEFICIT_CHUNK_ROWS):
        z = rng.standard_normal((min(DEFICIT_CHUNK_ROWS, count - first), 11))
        U = (z[:, :10] * 0.5 ** np.arange(10)) @ phis.T + 0.01 * z[:, 10:]
        U = U[np.any(U, axis=1)]
        worst = float(np.min(fn.deficits(spec, U, U @ disc.diff_matrix.T), initial=worst))
    return worst >= -1e-8, worst, f"min deficit over {count} seeded functions"


CRITERIA = [
    ("spectral_gap", check_spectral_gap),
    ("constant_consistency", check_constant_consistency),
    ("strict_binding", check_strict_binding_range),
    ("bubble_extremality", check_bubble_extremality),
    ("variation_formulas", check_variation_formulas),
    ("second_variation_cancellation", check_second_variation_cancellation),
    ("sphere_degenerate_slope", check_sphere_degenerate_slope),
    ("product_degenerate_slope", check_product_degenerate_slope),
    ("nondegenerate_control", check_nondegenerate_control),
    ("lojasiewicz_consistency", check_lojasiewicz),
    ("b_estimator", check_b_estimator),
    ("deficit_nonnegativity", check_deficit_nonnegativity),
]

# cases that accept a resolution override
_N_OVERRIDABLE = {
    name for name, check in CRITERIA if "n" in inspect.signature(check).parameters
}


def run_suite(only: str | None = None, n: int | None = None) -> list[dict]:
    results = []
    for name, check in CRITERIA:
        if only is not None and only not in name:
            continue
        if n is not None and name in _N_OVERRIDABLE:
            results.append(_case(name, lambda c=check: c(n=n)))
        else:
            results.append(_case(name, check))
    return results

