"""Deficit/distance experiments along rays from extremal functions.

The central objects are rays u_eps = base + eps * direction leaving a normalized
extremal, the Sobolev deficit Q(u) - 1, and the normalized W^{1,2} distance to a family
of extremals: the constants, or with them the one bubble family b in (-1, 1), whose nearest b
is bracketed on a grid and solved by Chandrupatla's method (`_root`), distance at the root.
A log-log fit of deficit against distance estimates the stability exponent: 2 for
non-degenerate specs, 4 in the degenerate cases (sphere sub-critical, product critical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from .discretization import DiscreteFunction, Discretization, _check_same, laplace_eigenpairs
from .functionals import QuotientSpec
from .geometry import ModelKind
from .optimize import CriticalPoint, reduced_functional

EXTREMAL_FAMILIES = ("constants", "bubbles_and_constants")
NOISE_FLOOR_FACTOR = 100.0
CLASSIFY_MARGIN = 0.5
MIN_FIT_POINTS = 5  # a ray scan fits its exponent to at least this many points
LOJASIEWICZ_SAMPLING = np.geomspace(0.02, 0.2, 10)
BUBBLE_END = math.atanh(1.0 - 1e-6)  # the bubbles' |b| <= 1 - 1e-6, in s = artanh b
BUBBLE_STEPS = 15  # steps of their search grid in s, times max(1, |e|); see _distance_to_bubbles


def bubble(disc: Discretization, a: float, b: float) -> DiscreteFunction:
    """Spherical extremal a*(1 - b*cos t)^{(2-d)/2}: pole at t = 0 if b > 0, at t = pi if b < 0."""
    if disc.model.kind is not ModelKind.SPHERE_RADIAL:
        raise ValueError("bubbles are defined on the sphere-radial model only")
    if a == 0:
        raise ValueError("amplitude a must be nonzero")
    if not 0.0 < abs(b) < 1.0:
        raise ValueError(f"b must satisfy 0 < |b| < 1, got {b}")
    return DiscreteFunction(disc, a * fn.bubble_profile(np.cos(disc.nodes), b, disc.model.dim))


def _w12_pair(wf: np.ndarray, h: np.ndarray) -> float:
    # W^{1,2} pairing of rows [f; Df] times the weights with rows [h; Dh], summed
    # as gradient_norm_sq + inner (np.add.reduce is np.sum's), so bit for bit equal
    s = np.add.reduce(wf * h, axis=1)
    return float(s[1]) + float(s[0])


def w12_norm_sq(disc: Discretization, u: DiscreteFunction) -> float:
    _check_same(disc, u)
    uu = np.stack([u.values, disc.diff_matrix @ u.values])
    return _w12_pair(disc.quad_weights * uu, uu)


def _root(f, lo: float, hi: float) -> float:
    """Distance^2 at the root in [lo, hi] of the slope, f(b) = (slope, distance^2), read at the
    bracket end of smaller |slope| once tol = 4 eps |b| + 1e-300 exceeds half the bracket, by
    Chandrupatla's method (Adv. Eng. Softw. 28, 1997); RuntimeError after 100 steps.  Where the
    end slopes do not bracket (one sign, an exact 0, a NaN slope anywhere): the lesser end's."""
    x1, x2, t = float(lo), float(hi), 0.5
    (f1, d1), (f2, d2) = f(x1), f(x2)
    lesser = min(d1, d2)
    if not (f1 < 0 < f2 or f2 < 0 < f1):  # signs, not the product, which can underflow to 0
        return lesser
    for _ in range(100):
        xt = x1 + t * (x2 - x1)
        ft, dt = f(xt)
        if math.isnan(ft):
            return lesser
        if (ft < 0) != (f1 < 0):  # xt brackets the root with x1, so x1 and x2 swap
            x1, f1, d1, x2, f2, d2 = x2, f2, d2, x1, f1, d1
        x3, f3, x1, f1, d1 = x1, f1, xt, ft, dt  # x3 is the point that left the bracket
        xm, fm, dm = (x1, f1, d1) if abs(f1) < abs(f2) else (x2, f2, d2)
        tl = (4.0 * float(np.finfo(float).eps) * abs(xm) + 1e-300) / abs(x2 - x1)  # least step
        if fm == 0 or tl > 0.5:
            return dm
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        t = 0.5  # bisection, unless the inverse quadratic through the three points is safe
        if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                 - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
        t = min(1.0 - tl, max(tl, t))
    raise RuntimeError("Chandrupatla's method did not converge in 100 steps")


def _distance_to_bubbles(disc: Discretization, u: np.ndarray, norm_u: float) -> float:
    # W^{1,2} least squares on raw rows [f; Df] over the one family b in (-1, 1), b < 0 the
    # bubbles at t = pi.  a(b) is closed form, and the envelope derivative
    # d/db ||u - a g||^2 = -2a <r, d_b g>, r = u - a g, turns from - to + on the grid (step
    # ~0.5 / max(1, |e|) in s = artanh b, as |d_s log g| <= 2|e|) around each minimum in b;
    # Chandrupatla's method (_root) solves it to 8 eps |b|, as an exact bubble's distance
    # is linear in |b - b*|, and gives the distance at the root (the lesser node's where the
    # slope is 0 to rounding at one).  A grid end counts unless the distance falls from it into
    # the grid.  r is formed (||u||^2 - <u,g>^2 / ||g||^2 is noise on a bubble) and D r taken:
    # Du - a Dg loses up to 40x more digits, as D is O(n^2) on the O(1) parts of u and g.
    D, w, cos_t, d = disc.diff_matrix, disc.quad_weights, np.cos(disc.nodes), disc.model.dim
    e = (2.0 - d) / 2.0
    if disc._bubble_grid is None:  # the grid pass depends on disc only: made once, kept on it
        half = np.tanh(np.linspace(0.0, BUBBLE_END, 1 + math.ceil(BUBBLE_STEPS * max(1.0, -e))))
        grid = np.concatenate([-half[:0:-1], half])  # odd in s, with b = 0 and the half's nodes
        base = 1.0 - np.outer(cos_t, grid)
        G, dG = base**e, (-e * cos_t)[:, None] * base ** (e - 1.0)
        DG, DdG = D @ G, D @ dG
        gg, gdg = w @ (G * G + DG * DG), w @ (G * dG + DG * DdG)
        object.__setattr__(disc, "_bubble_grid", (grid, G, dG, DG, DdG, gg, gdg))
    grid, G, dG, DG, DdG, gg, gdg = disc._bubble_grid
    g, dg, r, wu = np.empty_like(u), np.empty_like(u), np.empty_like(u), w * u

    def fit(b: float) -> tuple[float, float]:  # (half slope, distance^2) at b
        g[0] = fn.bubble_profile(cos_t, b, d)
        np.matmul(D, g[0], out=g[1])
        np.matmul(D, np.multiply(-e * cos_t / (1.0 - b * cos_t), g[0], out=dg[0]), out=dg[1])
        a = _w12_pair(wu, g) / _w12_pair(w * g, g)
        np.matmul(D, np.subtract(u[0], a * g[0], out=r[0]), out=r[1])
        return -a * _w12_pair(w * r, dg), _w12_pair(w * r, r)

    a = (wu[0] @ G + wu[1] @ DG) / gg
    slope = -a * (wu[0] @ dG + wu[1] @ DdG - a * gdg)
    ends = [b for b, end in zip(grid[[0, -1]], (slope[0] >= 0, slope[-1] <= 0)) if end]
    dists = [fit(b)[1] for b in ends]
    dists += [_root(fit, grid[i], grid[i + 1])
              for i in np.flatnonzero((slope[:-1] < 0) & (slope[1:] >= 0))]
    return math.sqrt(min(dists)) / norm_u


def distance_to_extremals(u: DiscreteFunction, family: str) -> float:
    """Normalized W^{1,2} distance to the chosen extremal family."""
    if not np.any(u.values):
        raise ValueError("function is identically zero")
    if family not in EXTREMAL_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {EXTREMAL_FAMILIES}")
    disc = u.disc
    if family == "bubbles_and_constants" and disc.model.kind is not ModelKind.SPHERE_RADIAL:
        raise ValueError("bubbles are defined on the sphere-radial model only")
    w, D, vals = disc.quad_weights, disc.diff_matrix, u.values
    uu = np.stack([vals, D @ vals])
    norm_u_sq = _w12_pair(w * uu, uu)
    # closed-form projection onto constants: the optimal one is the volume average
    diff = vals - disc.integrate(vals) / disc.model.total_volume
    diff = np.stack([diff, D @ diff])
    d_const = math.sqrt(_w12_pair(w * diff, diff) / norm_u_sq)
    if family == "constants":
        return d_const
    return min(d_const, _distance_to_bubbles(disc, uu, math.sqrt(norm_u_sq)))


@dataclass
class Ray:
    base: DiscreteFunction  # normalized extremal
    direction: DiscreteFunction  # tangent, unit W^{1,2}
    epsilons: np.ndarray

    def __post_init__(self):
        self.epsilons = np.asarray(self.epsilons, dtype=float)
        if np.any(self.epsilons <= 0) or np.any(np.diff(self.epsilons) <= 0):
            raise ValueError("epsilons must be positive and strictly increasing")


def default_epsilons(m: int = 25, lo: float = 1e-3, hi: float = 1e-1) -> np.ndarray:
    return np.geomspace(lo, hi, m)


def ray_from_constants(
    spec: QuotientSpec, mode_index: int = 1, epsilons: np.ndarray | None = None
) -> Ray:
    """Ray leaving the normalized constant along a Laplace eigenmode."""
    disc = spec.disc
    base = fn.normalize(DiscreteFunction(disc, np.ones(disc.n)), spec.q)
    spec_data = laplace_eigenpairs(disc, mode_index + 1)
    phi = spec_data.eigenfunctions[mode_index]
    phi = fn.project_tangent(spec, base, phi)
    scale = math.sqrt(w12_norm_sq(disc, phi))
    direction = DiscreteFunction(disc, phi.values / scale)
    if epsilons is None:
        epsilons = default_epsilons()
    return Ray(base=base, direction=direction, epsilons=epsilons)


def fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log y against log x and its standard error.

    Both are NaN if x is constant up to rounding, with log x spread below polyfit's rank
    cut relative to max(1, |log x|).  The error is NaN for two points: no residual is left.
    """
    lx, ly = np.log(x), np.log(y)
    m = len(lx)
    if m < 2 or np.std(lx) <= 4 * m * np.finfo(float).eps * max(1.0, np.max(np.abs(lx))):
        return math.nan, math.nan
    coeffs, residuals, *_ = np.polyfit(lx, ly, 1, full=True)
    slope = float(coeffs[0])
    if not len(residuals):
        return slope, math.nan
    var = float(residuals[0]) / (m - 2)
    return slope, math.sqrt(var / float(np.sum((lx - lx.mean()) ** 2)))


@dataclass
class ExperimentReport:
    rows: list  # per-epsilon dicts: epsilon, deficit, distance, q_value, in_fit_window
    fitted_slope: float
    slope_stderr: float
    fit_window: tuple
    classification: str  # degenerate | nondegenerate | inconclusive
    metadata: dict = field(default_factory=dict)


def classify(slope: float) -> str:
    """Verdict on a fitted exponent: nondegenerate within CLASSIFY_MARGIN of 2, degenerate above."""
    if math.isnan(slope):
        return "inconclusive"
    if abs(slope - 2.0) <= CLASSIFY_MARGIN:
        return "nondegenerate"
    if slope > 2.0 + CLASSIFY_MARGIN:
        return "degenerate"
    return "inconclusive"


def ray_scan(spec: QuotientSpec, ray: Ray, family: str = "constants") -> ExperimentReport:
    """Scan deficit and distance along a ray, fitting the stability exponent.

    The fit window excludes points whose deficit sits below 100x the
    estimated quadrature noise floor (the deficit of the base extremal).
    """
    disc = spec.disc
    tangency = abs(
        float(np.sum(disc.quad_weights * fn.power_qm1(ray.base.values, spec.q) * ray.direction.values))
    )
    if tangency > 1e-10:
        raise ValueError(f"ray direction is not tangent at base (pairing {tangency:.3e})")
    d0 = abs(fn.deficit(spec, ray.base))
    floor = NOISE_FLOOR_FACTOR * max(d0, 1e-15)
    rows = []
    for eps in ray.epsilons:
        u = DiscreteFunction(disc, ray.base.values + eps * ray.direction.values)
        dfc = fn.deficit(spec, u)
        dst = distance_to_extremals(u, family)
        rows.append(
            {
                "epsilon": float(eps),
                "deficit": float(dfc),
                "distance": float(dst),
                "q_value": float(dfc + 1.0),
                "in_fit_window": bool(dfc > floor and dst > 0),
            }
        )
    window = [r for r in rows if r["in_fit_window"]]
    if len(window) < MIN_FIT_POINTS:
        for r in rows:
            r["in_fit_window"] = False
        slope, stderr, fit_window = math.nan, math.nan, (math.nan, math.nan)
    else:
        x = np.array([r["distance"] for r in window])
        y = np.array([r["deficit"] for r in window])
        slope, stderr = fit_loglog(x, y)
        fit_window = (window[0]["epsilon"], window[-1]["epsilon"])
    return ExperimentReport(
        rows=rows,
        fitted_slope=slope,
        slope_stderr=stderr,
        fit_window=fit_window,
        classification=classify(slope),
        metadata=_scan_metadata(spec, family, floor),
    )


def _scan_metadata(spec: QuotientSpec, family: str, floor: float) -> dict:
    model = spec.disc.model
    return {
        "model": model.kind.value,
        "d": model.dim,
        "q": spec.q,
        "A": spec.A,
        "B": spec.B,
        "n": spec.disc.n,
        "family": family,
        "noise_floor": floor,
    }


def lojasiewicz_estimate(spec: QuotientSpec, v: CriticalPoint) -> float:
    """Empirical Lojasiewicz exponent 2 + gamma through the reduced functional.

    Samples the reduced functional at +/-t, t in LOJASIEWICZ_SAMPLING, along
    the first kernel direction and fits log(q(t) - q(0)) against log t.
    Returns NaN when fewer than five samples converge.
    """
    if v.kernel_dim < 1:
        raise ValueError("critical point has no kernel; Lojasiewicz reduction not applicable")
    ts, gaps = [], []
    for t in LOJASIEWICZ_SAMPLING:
        for sign in (+1.0, -1.0):
            coords = np.zeros(v.kernel_dim)
            coords[0] = sign * t
            sample = reduced_functional(spec, v, coords)
            if not sample.inner_converged:
                continue
            gap = sample.value - v.value
            if gap > 0:
                ts.append(t)
                gaps.append(gap)
    if len(ts) < 5:
        return math.nan
    slope, _ = fit_loglog(np.array(ts), np.array(gaps))
    return slope

