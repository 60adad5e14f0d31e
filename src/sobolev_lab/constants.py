"""Optimal constants of the AB-program and the associated bound checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import discretization as dz
from . import functionals as fn
from .discretization import DiscreteFunction, Discretization, laplace_eigenpairs
from .functionals import QuotientSpec, check_exponent, sobolev_conjugate
from .geometry import ManifoldModel, ModelKind, make_product, unit_sphere_volume


def euclidean_sobolev_constant(d: int) -> float:
    """Optimal constant of the sharp Euclidean Sobolev inequality.

    S_d = sqrt((2* - 2)/d) * Vol(S^d)^{-1/d}.
    """
    if d < 3:
        raise ValueError(f"requires d >= 3, got {d}")
    two_star = sobolev_conjugate(d)
    return math.sqrt((two_star - 2.0) / d) * unit_sphere_volume(d) ** (-1.0 / d)


def beta_constant(model: ManifoldModel) -> float:
    """Smallest admissible zero-order constant, Vol^{-2/d}."""
    return model.total_volume ** (-2.0 / model.dim)


def spectral_gap(disc: Discretization) -> float:
    """First nonzero eigenvalue of the reduced Laplacian."""
    spec_data = laplace_eigenpairs(disc, 2)
    return float(spec_data.eigenvalues[1])


def a_opt_spectral_gap(disc: Discretization, q: float) -> float:
    """Gradient constant (q-2)/lambda * Vol^{2/q-1} from the spectral gap.

    Valid as the optimal constant only when constants are the only extremal
    functions; the caller owns that assertion (see ConstantsReport provenance).
    """
    model = disc.model
    check_exponent(q, model.dim)
    lam = spectral_gap(disc)
    return (q - 2.0) / lam * model.total_volume ** (2.0 / q - 1.0)


def a_opt_sphere_closed_form(d: int, q: float) -> float:
    """((q-2)/d) * Vol(S^d)^{2/q-1}, valid for the round sphere, 2 < q <= 2*."""
    check_exponent(q, d)
    return (q - 2.0) / d * unit_sphere_volume(d) ** (2.0 / q - 1.0)


def a_opt_product_critical(d: int) -> float:
    """4/(d-2)^2 * Vol^{-2/d} for S^1(1/sqrt(d-2)) x S^{d-1} at q = 2*."""
    model = make_product(d)
    return 4.0 / (d - 2.0) ** 2 * model.total_volume ** (-2.0 / d)


def check_strict_binding(d: int) -> bool:
    """True iff S_d^2 < A_opt at the critical exponent on the product model."""
    if d < 3:
        raise ValueError(f"requires d >= 3, got {d}")
    return euclidean_sobolev_constant(d) ** 2 < a_opt_product_critical(d)


def b_lower_bound(model: ManifoldModel) -> float:
    """(d-2)/(4(d-1)) * S_d^2 * max R_g; proved for d >= 4, advisory below."""
    d = model.dim
    sd2 = euclidean_sobolev_constant(d) ** 2
    return (d - 2.0) / (4.0 * (d - 1.0)) * sd2 * model.scalar_curvature


def _b_objective(disc: Discretization, phi_mat: np.ndarray, coeffs: np.ndarray) -> float:
    # (||u||_{2*}^2 - S_d^2 ||grad u||^2) / ||u||_2^2 over the eigen-subspace
    d = disc.model.dim
    two_star = sobolev_conjugate(d)
    sd2 = euclidean_sobolev_constant(d) ** 2
    u = DiscreteFunction(disc, phi_mat @ coeffs)
    l2 = dz.inner(disc, u, u)
    if l2 < 1e-14:
        return -math.inf
    return (dz.lp_norm(disc, u, two_star) ** 2 - sd2 * dz.gradient_norm_sq(disc, u)) / l2


def _b_ratio_and_grad(
    coeffs: np.ndarray, disc: Discretization, phi_mat: np.ndarray, lam: np.ndarray
) -> tuple[float, np.ndarray]:
    """The `_b_objective` ratio at u = phi_mat @ coeffs, and its gradient in coeffs.

    The columns of phi_mat are Laplace eigenfunctions, orthonormal in the
    quadrature with eigenvalues lam, so ||u||^2 = |c|^2 and ||grad u||^2 =
    sum lam c^2; with s = sum w|u|^p the gradient of ||u||_p^2 is
    2 s^{2/p-1} Phiᵀ(w |u|^{p-2} u).
    """
    d = disc.model.dim
    p = sobolev_conjugate(d)
    sd2 = euclidean_sobolev_constant(d) ** 2
    w = disc.quad_weights
    u = phi_mat @ coeffs
    abs_pm2 = np.abs(u) ** (p - 2.0)
    s = w @ (abs_pm2 * u * u)
    kc = lam * coeffs
    l2 = coeffs @ coeffs
    ratio = (s ** (2.0 / p) - sd2 * (coeffs @ kc)) / l2
    grad_num = 2.0 * s ** (2.0 / p - 1.0) * (phi_mat.T @ (w * abs_pm2 * u)) - 2.0 * sd2 * kc
    return ratio, (grad_num - 2.0 * ratio * coeffs) / l2


def _negated_b_ratio(coeffs, *args):
    ratio, grad = _b_ratio_and_grad(coeffs, *args)
    return -ratio, -grad


def estimate_b_opt(
    model: ManifoldModel,
    disc: Discretization,
    budget: int = 8,
    seed: int = 0,
    n_modes: int = 12,
) -> float:
    """Certified lower bound for the second-best zero-order constant.

    Runs multistart L-BFGS ascent of the ratio (||u||_{2*}^2 - S_d^2
    ||grad u||^2) / ||u||_2^2 over the span of the low Laplace
    eigenfunctions, with its closed-form gradient (`_b_ratio_and_grad`).
    Each start and each end point is re-evaluated by `_b_objective`, and the
    best of those values is returned: every one is the ratio at an actual u,
    hence a valid lower bound. Monotone nondecreasing in `budget`
    (best-so-far over seeds 0..budget-1). `model` is not read: `disc` carries it.
    """
    from scipy.optimize import minimize as scipy_minimize  # here: it adds ~0.2 s to start-up
    spec_data = laplace_eigenpairs(disc, min(n_modes, disc.n))
    phi_mat = np.column_stack([f.values for f in spec_data.eigenfunctions])
    k = phi_mat.shape[1]
    w = disc.quad_weights

    eye = np.eye(k)
    starts = [eye[0]]
    for j in (1, 2):
        if j < k:
            starts.append(eye[0] + 0.3 * eye[j])
            starts.append(eye[0] - 0.3 * eye[j])
    # quadrature-orthonormal eigenfunctions: project by L^2 pairing
    starts += [phi_mat.T @ (w * bub) for bub in fn.bubble_starts(disc)]
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(budget):
        starts.append(eye[0] + 0.2 * rng.standard_normal(k))
    best = -math.inf
    # scipy's default stopping test leaves the product d = 4 value ~1e-11 short
    for c0 in starts:
        res = scipy_minimize(_negated_b_ratio, c0, args=(disc, phi_mat, spec_data.eigenvalues),
                             jac=True, method="L-BFGS-B", options={"ftol": 1e-15, "gtol": 1e-12})
        best = max(best, _b_objective(disc, phi_mat, c0), _b_objective(disc, phi_mat, res.x))
    return best


@dataclass
class ConstantsReport:
    model: str
    d: int
    q: float
    S_d: float
    beta: float
    A_opt: float
    A_opt_provenance: str  # closed-form-sphere | spectral-gap | product-critical
    B_lower: float
    B_opt_estimate: float
    strict_binding: bool
    spectral_gap: float

    def __post_init__(self):
        if self.S_d <= 0:
            raise ValueError("S_d must be positive")


def a_opt_default(disc: Discretization, q: float) -> tuple[float, str]:
    """The default A_opt of disc's model at exponent q, with its provenance."""
    model = disc.model
    if model.kind is ModelKind.SPHERE_RADIAL:
        return a_opt_sphere_closed_form(model.dim, q), "closed-form-sphere"
    if abs(q - sobolev_conjugate(model.dim)) < 1e-12:
        return a_opt_product_critical(model.dim), "product-critical"
    return a_opt_spectral_gap(disc, q), "spectral-gap"


def default_spec(disc: Discretization, q: float, a_factor: float = 1.0) -> QuotientSpec:
    """A = a_factor * A_opt and B = Vol^{2/q-1}: with a_factor 1, constants have Q = 1."""
    a_opt, _ = a_opt_default(disc, q)
    B = disc.model.total_volume ** (2.0 / q - 1.0)
    return QuotientSpec(A=a_factor * a_opt, B=B, q=q, disc=disc)


def constants_report(
    disc: Discretization, q: float, b_budget: int = 4, seed: int = 0
) -> ConstantsReport:
    model = disc.model
    d = model.dim
    a_opt, provenance = a_opt_default(disc, q)
    return ConstantsReport(
        model=model.kind.value,
        d=d,
        q=q,
        S_d=euclidean_sobolev_constant(d),
        beta=beta_constant(model),
        A_opt=a_opt,
        A_opt_provenance=provenance,
        B_lower=b_lower_bound(model),
        B_opt_estimate=estimate_b_opt(model, disc, budget=b_budget, seed=seed),
        strict_binding=check_strict_binding(d),
        spectral_gap=spectral_gap(disc),
    )
