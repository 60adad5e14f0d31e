"""Deficit/distance experiments along rays from extremal functions.

The central objects are rays u_eps = base + eps * direction leaving a normalized extremal,
the Sobolev deficit Q(u) - 1, and the normalized W^{1,2} distance to a family of extremals:
the constants, or with them the one bubble family b in (-1, 1), whose nearest b is bracketed on
a grid and solved from its end slopes by Chandrupatla's method (`_root`), one distance at the
root.  Both families are reflection-invariant: u and its mirror image get the same bits.  A scan
takes its rows as one stack: one product with D, one quotient_parts call and the constants'
distance at once, the bubbles' row by row.  A log-log fit of deficit against distance gives the
stability exponent: 2 if non-degenerate, 4 if degenerate (sphere sub-critical, product critical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from .discretization import DiscreteFunction, Discretization, _check_same, laplace_eigenpairs
from .functionals import QuotientSpec
from .geometry import ModelKind
from .optimize import CriticalPoint, reduced_functional_stack

EXTREMAL_FAMILIES = ("constants", "bubbles_and_constants")
NOISE_FLOOR_FACTOR = 100.0
CLASSIFY_MARGIN = 0.5
MIN_FIT_POINTS = 5  # a ray scan fits its exponent to at least this many points
LOJASIEWICZ_SAMPLING = np.geomspace(0.02, 0.2, 10)
BUBBLE_END = math.atanh(1.0 - 1e-6)  # the bubbles' |b| <= 1 - 1e-6, in s = artanh b
BUBBLE_STEPS = 30  # steps of their search grid in s, times max(1, |e|); see _distance_to_bubbles


def bubble(disc: Discretization, a: float, b: float) -> DiscreteFunction:
    """Spherical extremal a*(1 - b*cos t)^{(2-d)/2}: pole at t = 0 if b > 0, at t = pi if b < 0."""
    if disc.model.kind is not ModelKind.SPHERE_RADIAL:
        raise ValueError("bubbles are defined on the sphere-radial model only")
    if a == 0:
        raise ValueError("amplitude a must be nonzero")
    if not 0.0 < abs(b) < 1.0:
        raise ValueError(f"b must satisfy 0 < |b| < 1, got {b}")
    return DiscreteFunction(disc, a * fn.bubble_profile(np.cos(disc.nodes), b, disc.model.dim))


def w12_norm_sq(disc: Discretization, u: DiscreteFunction) -> float:
    _check_same(disc, u)
    uu = np.stack([u.values, disc.diff_matrix @ u.values])
    s = np.add.reduce(disc.quad_weights * uu * uu, axis=1)  # np.sum's, row by row: the W^{1,2}
    return float(s[1]) + float(s[0])  # norm^2 as gradient_norm_sq + inner, bit for bit


def _root(slope, dist2, x1: float, f1: float, x2: float, f2: float) -> float:
    """dist2 at the root in [x1, x2] of slope, from the end slopes f1, f2: Chandrupatla's method
    (Adv. Eng. Softw. 28, 1997) from their regula falsi point, read where slope gives 0 (its
    rounding level), or at the point of smaller |slope| once 4 eps |b| + 1e-300 exceeds half the
    bracket; RuntimeError after 100 steps.  Unbracketing ends or a NaN slope: the lesser end's."""
    lo, hi, eps = x1, x2, float(np.finfo(float).eps)
    if not (f1 < 0 < f2 or f2 < 0 < f1):  # signs, not the product, which can underflow to 0
        return min(dist2(hi), dist2(lo))  # hi first: a b = 0 end, whose fit is held, is hi
    tl = (4.0 * eps * max(abs(x1), abs(x2)) + 1e-300) / abs(x2 - x1)
    t = min(1.0 - tl, max(tl, f1 / (f1 - f2)))  # the regula falsi point, off the ends
    for _ in range(100):
        xt = x1 + t * (x2 - x1)
        ft = slope(xt)
        if math.isnan(ft):
            return min(dist2(hi), dist2(lo))
        if (ft < 0) != (f1 < 0):  # xt brackets the root with x1, so x1 and x2 swap
            x1, f1, x2, f2 = x2, f2, x1, f1
        x3, f3, x1, f1 = x1, f1, xt, ft  # x3 is the point that left the bracket
        xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        tol = 4.0 * eps * abs(xm) + 1e-300  # the least step
        if fm == 0 or 2.0 * tol > abs(x2 - x1):
            return dist2(xm)
        tl, xi, phi = tol / abs(x2 - x1), (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        t = 0.5  # bisection, unless the inverse quadratic through the three points is safe
        if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                 - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
        t = min(1.0 - tl, max(tl, t))
    raise RuntimeError("Chandrupatla's method did not converge in 100 steps")


def _distance_to_bubbles(disc: Discretization, u: np.ndarray, norm_u: float) -> float:
    # W^{1,2} least squares on raw rows [f; Df] over the one family b in (-1, 1), b < 0 the
    # bubbles at t = pi.  a(b) = <u, g> / <g, g> is closed form, and the envelope derivative
    # d/db ||u - a g||^2 = -2a (<u, d_b g> - a <g, d_b g>) turns from - to + on the grid (step
    # ~0.25 / max(1, |e|) in s = artanh b, as |d_s log g| <= 2|e|) around each minimum in b;
    # Chandrupatla's method (_root) from the grid's end slopes (b = 0's fitted: an even u's is
    # rounding) solves it to 8 eps |b|, as an exact bubble's distance is linear in |b - b*|, or
    # until fit gives the slope as 0, within its pairings' rounding 4 eps |a| (sum |w u d_b g| +
    # |a| sum |w g d_b g|) (so a root at b = 0 ends), and takes the distance there only.  A grid
    # end counts unless the distance falls from it into the grid.  The distance is from the
    # formed r = u - a g and D r (||u||^2 - <u,g>^2 / ||g||^2 is noise on a bubble): Du - a Dg
    # loses up to 40x more digits, as D is O(n^2) on the O(1) parts of u and g.
    D, w, cos_t, d = disc.diff_matrix, disc.quad_weights, np.cos(disc.nodes), disc.model.dim
    e, eps, n = (2.0 - d) / 2.0, float(np.finfo(float).eps), len(w)
    if disc._bubble_grid is None:  # the grid pass depends on disc only: made once, kept on it
        half = np.tanh(np.linspace(0.0, BUBBLE_END, 1 + math.ceil(BUBBLE_STEPS * max(1.0, -e))))
        grid = np.concatenate([-half[:0:-1], half])  # odd in s, with b = 0 and the half's nodes
        base = 1.0 - np.outer(cos_t, grid)
        G, dG = base**e, np.multiply(-e * cos_t[:, None], base ** (e - 1.0), out=base)
        DG, DdG = D @ G, D @ dG
        gg, gdg = w @ (G * G + DG * DG), w @ (G * dG + DG * DdG)
        object.__setattr__(disc, "_bubble_grid", (grid, G, dG, DG, DdG, gg, gdg))
    grid, G, dG, DG, DdG, gg, gdg = disc._bubble_grid
    # [u; Du] and gs's [g; Dg] and [d_b g; D d_b g] are flat rows: a pairing is one dot
    ww, wu = np.concatenate([w, w]), (w * u).ravel()
    wu_abs, gs, at, ecos = np.abs(wu), np.empty((4, n)), [math.nan, 0.0], -e * cos_t
    g2, dg2 = gs[:2].reshape(-1), gs[2:].reshape(-1)

    def fit(b: float) -> float:  # the half slope at b, with b and a in at and g left in gs
        at[0], gs[0] = b, fn.bubble_profile(cos_t, b, d)
        np.multiply(np.divide(ecos, 1.0 - b * cos_t), gs[0], out=gs[2])
        np.matmul(gs[::2], D.T, out=gs[1::2])  # D g and D d_b g in one product
        wg, adg = np.multiply(ww, g2), np.abs(dg2)
        a = at[1] = float(wu @ g2) / float(wg @ g2)
        slope = -a * (float(wu @ dg2) - a * float(wg @ dg2))
        floor = 4.0 * eps * abs(a) * (float(wu_abs @ adg) + abs(a) * float(np.abs(wg) @ adg))
        return 0.0 if abs(slope) <= floor else slope  # 0: _root stops there

    def dist2(b: float) -> float:  # once per search, from the last fit's g when it is at b
        if b != at[0]:
            fit(b)
        r = u[0] - at[1] * gs[0]
        r = np.concatenate([r, D @ r])
        return float(np.multiply(ww, r) @ r)

    a, mid = (wu[:n] @ G + wu[n:] @ DG) / gg, len(grid) // 2
    slope = -a * (wu[:n] @ dG + wu[n:] @ DdG - a * gdg)
    if slope[mid - 1] < 0 <= slope[mid] or slope[mid] < 0 <= slope[mid + 1]:  # at b = 0
        slope[mid] = fit(0.0)
    bs, fs = grid.tolist(), slope.tolist()
    dists = [dist2(b) for b, end in zip((bs[0], bs[-1]), (fs[0] >= 0, fs[-1] <= 0)) if end]
    dists += [_root(fit, dist2, bs[i], fs[i], bs[i + 1], fs[i + 1])
              for i in np.flatnonzero((slope[:-1] < 0) & (slope[1:] >= 0))]
    return math.sqrt(min(dists)) / norm_u


def _mirror_choice(values: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """Of u and its mirror image, the one larger at the first node where they differ."""
    mirrored = values[mirror]
    first = np.argmax(values != mirrored)
    return mirrored if mirrored[first] > values[first] else values


def _distances(disc: Discretization, U: np.ndarray, DU: np.ndarray, family: str) -> np.ndarray:
    """distance_to_extremals of each row of a stack U (each its _mirror_choice), with DU = U D^T:
    the constants' distance for all rows at once, the bubbles' row by row."""
    if not np.all(np.any(U, axis=-1)):
        raise ValueError("function is identically zero")
    if family not in EXTREMAL_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {EXTREMAL_FAMILIES}")
    if family == "bubbles_and_constants" and disc.model.kind is not ModelKind.SPHERE_RADIAL:
        raise ValueError("bubbles are defined on the sphere-radial model only")
    w, total, UU = disc.quad_weights, np.add.reduce, np.stack([U, DU])
    s = total(w * UU * UU, axis=-1)  # summed as w12_norm_sq's, bit for bit
    norm_sq = s[1] + s[0]
    # closed-form projection onto constants: the optimal one is the volume average
    C = U - (U @ w / disc.model.total_volume)[..., None]
    DC = C @ disc.diff_matrix.T
    d_const = np.sqrt((total(w * DC * DC, axis=-1) + total(w * C * C, axis=-1)) / norm_sq)
    if family == "constants":
        return d_const
    # D u by one row's product: near a constant the bubbles' O(eps^2) distance reads its last bits
    return np.minimum(d_const, [_distance_to_bubbles(disc, np.stack([u, disc.diff_matrix @ u]),
                                                     math.sqrt(sq)) for u, sq in zip(U, norm_sq)])


def distance_to_extremals(u: DiscreteFunction, family: str) -> float:
    """Normalized W^{1,2} distance to the chosen extremal family."""
    vals = _mirror_choice(u.values, u.disc.mirror)
    return float(_distances(u.disc, vals[None], (u.disc.diff_matrix @ vals)[None], family)[0])


@dataclass
class Ray:
    base: DiscreteFunction  # normalized extremal
    direction: DiscreteFunction  # tangent, unit W^{1,2}
    epsilons: np.ndarray

    def __post_init__(self):
        e = self.epsilons = np.asarray(self.epsilons, dtype=float)
        if not np.all(np.isfinite(e) & (e > 0)) or np.any(np.diff(e) <= 0):
            raise ValueError("epsilons must be finite, positive and strictly increasing")


def default_epsilons(m: int = 25, lo: float = 1e-3, hi: float = 1e-1) -> np.ndarray:
    """m epsilons log-spaced from lo to hi."""
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"need 0 < lo < hi < inf, got lo = {lo}, hi = {hi}")
    return np.geomspace(lo, hi, m)


def ray_from_constants(
    spec: QuotientSpec, mode_index: int = 1, epsilons: np.ndarray | None = None
) -> Ray:
    """Ray leaving the normalized constant along a non-constant Laplace eigenmode."""
    disc = spec.disc
    if not 1 <= mode_index < disc.n:
        raise ValueError(f"mode_index must be in [1, {disc.n - 1}], got {mode_index}")
    base = fn.normalize(DiscreteFunction(disc, np.ones(disc.n)), spec.q)
    mode = laplace_eigenpairs(disc, mode_index + 1).eigenfunctions[mode_index]
    phi = fn.project_tangent(spec, base, mode)  # exactly odd along an odd mode
    direction = DiscreteFunction(disc, phi.values / math.sqrt(w12_norm_sq(disc, phi)))
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
    tangency = abs(fn.tangent_pairing(spec, ray.base.values, ray.direction.values))
    if tangency > 1e-10:
        raise ValueError(f"ray direction is not tangent at base (pairing {tangency:.3e})")
    floor = NOISE_FLOOR_FACTOR * max(abs(fn.deficit(spec, ray.base)), 1e-15)
    # the rows u_eps as one stack, each its _mirror_choice (Q is reflection-invariant too)
    U = np.array([_mirror_choice(u, disc.mirror)
                  for u in ray.base.values + ray.epsilons[:, None] * ray.direction.values])
    DU = U @ disc.diff_matrix.T
    rows = [{"epsilon": float(eps), "deficit": float(dfc), "distance": float(dst),
             "q_value": float(dfc + 1.0), "in_fit_window": bool(dfc > floor and dst > 0)}
            for eps, dfc, dst in zip(ray.epsilons, fn.deficits(spec, U, DU),
                                     _distances(disc, U, DU, family))]
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
    the first kernel direction, all 20 in one stack (reduced_functional_stack),
    and fits log(q(t) - q(0)) against log t over the samples whose inner solve
    converged with a positive gap.  Returns NaN when fewer than five do.
    """
    if v.kernel_dim < 1:
        raise ValueError("critical point has no kernel; Lojasiewicz reduction not applicable")
    ts = np.repeat(LOJASIEWICZ_SAMPLING, 2)
    coords = np.zeros((len(ts), v.kernel_dim))
    coords[::2, 0], coords[1::2, 0] = LOJASIEWICZ_SAMPLING, -LOJASIEWICZ_SAMPLING
    samples = reduced_functional_stack(spec, v, coords)
    fit = [(t, s.value - v.value) for t, s in zip(ts, samples)
           if s.inner_converged and s.value - v.value > 0]
    if len(fit) < 5:
        return math.nan
    slope, _ = fit_loglog(*map(np.array, zip(*fit)))
    return slope
