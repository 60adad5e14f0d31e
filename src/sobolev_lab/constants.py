"""Optimal constants of the AB-program and the associated bound checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from .discretization import Discretization, laplace_eigenpairs
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


# _ascend: rounds per row; the gradient max-norm and relative gain at which a row stops
ASCENT_ROUNDS = 100
ASCENT_GTOL = 1e-12
ASCENT_FTOL = 1e-15


def _b_objective(disc: Discretization, basis: tuple, coeffs: np.ndarray) -> float:
    # the one-row value of _b_ratio_and_grad; -inf where it has none (the zero function)
    ratio = _b_ratio_and_grad(coeffs, disc, basis)[0]
    return -math.inf if math.isnan(ratio) else ratio


def _b_ratio_and_grad(coeffs: np.ndarray, disc: Discretization, basis: tuple):
    """(||u||_{2*}^2 - S_d^2 ||grad u||^2) / ||u||_2^2 at u = Phi @ c and its gradient, per row c.

    basis = (Phi, M, K) with Gram M = PhiᵀWPhi and stiffness K = (DPhi)ᵀW(DPhi), so
    ||u||^2 = cᵀMc and ||grad u||^2 = cᵀKc; with s = sum w|u|^p the gradient of ||u||_p^2 is
    2 s^{2/p-1} Phiᵀ(w |u|^{p-2} u).  A vector c gives a float and a vector.  Sums are
    np.add.reduce, not BLAS: a row's values are the same bits in any stack (NaN if zero).
    """
    d = disc.model.dim
    p, sd2 = sobolev_conjugate(d), euclidean_sobolev_constant(d) ** 2
    (phi_mat, M, K), w, total, C = basis, disc.quad_weights, np.add.reduce, np.atleast_2d(coeffs)
    U = total(C[:, None, :] * phi_mat, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        wu_pm1 = w * np.abs(U) ** (p - 2.0) * U
        s = total(wu_pm1 * U, axis=1, keepdims=True)
        MC, KC = total(C[:, None, :] * M, axis=2), total(C[:, None, :] * K, axis=2)
        l2 = total(C * MC, axis=1, keepdims=True)
        ratio = (s ** (2.0 / p) - sd2 * total(C * KC, axis=1, keepdims=True)) / l2
        Y = 2.0 * s ** (2.0 / p - 1.0) / l2 * wu_pm1
        grad = total(Y[:, None, :] * phi_mat.T, axis=2) - 2.0 * (sd2 * KC + ratio * MC) / l2
    return (float(ratio[0, 0]), grad[0]) if np.ndim(coeffs) == 1 else (ratio[:, 0], grad)


def _ascend(ratio_and_grad, C0: np.ndarray) -> np.ndarray:
    """Ascend a ratio from each row of C0 in lockstep and return the rows' end points.

    ratio_and_grad maps a stack of rows to their ratios and gradients.  Each row runs dense
    BFGS with its own inverse Hessian (I, scaled by sᵀy/yᵀy at its first update), a first
    step of length <= 1 and Armijo backtracking (<= 40 halvings).  It leaves once its
    gradient max-norm is <= ASCENT_GTOL, a step gains <= ASCENT_FTOL * max(|R|, 1) or
    nothing, its ratio or gradient is not finite, or after ASCENT_ROUNDS rounds.  Updates are
    elementwise or np.add.reduce along rows: a row ends at the same bits in any stack.
    """
    total, X, eye = np.add.reduce, np.array(C0, dtype=float), np.eye(C0.shape[1])
    R, G = ratio_and_grad(X)
    H, fresh, live = np.tile(eye, (len(X), 1, 1)), np.ones(len(X), bool), np.arange(len(X))
    for _ in range(ASCENT_ROUNDS):
        gmax = np.max(np.abs(G[live]), axis=1)
        live = live[np.isfinite(gmax) & (gmax > ASCENT_GTOL)]  # a non-finite R makes G so too
        if not live.size:
            break
        Xl, Rl, Gl, Hl = X[live], R[live], G[live], H[live]
        P = total(Hl * Gl[:, None, :], axis=2)
        slope = total(Gl * P, axis=1)
        t = np.where(fresh[live], np.minimum(1.0, 1.0 / np.sqrt(total(P * P, axis=1))), 1.0)
        Xn, Rn, Gn, todo = Xl.copy(), Rl.copy(), Gl.copy(), np.flatnonzero(slope > 0.0)
        for _ in range(40):  # todo: the rows without an accepted step
            T = Xl[todo] + t[todo, None] * P[todo]
            RT, GT = ratio_and_grad(T)
            ok = RT >= Rl[todo] + 1e-4 * t[todo] * slope[todo]
            Xn[todo[ok]], Rn[todo[ok]], Gn[todo[ok]] = T[ok], RT[ok], GT[ok]
            todo = todo[~ok]
            t[todo] *= 0.5
            if not todo.size:
                break
        S, Yd = Xn - Xl, Gl - Gn  # the step and the change in the gradient of -R
        ys, yy = total(S * Yd, axis=1), total(Yd * Yd, axis=1)
        up = ys > np.finfo(float).eps * yy  # the curvature test; ys = 0 where a row did not move
        Hl *= np.divide(ys, yy, out=np.ones_like(ys), where=up & fresh[live])[:, None, None]
        rho = np.divide(1.0, ys, out=np.zeros_like(ys), where=up)
        HY = total(Hl * Yd[:, None, :], axis=2)
        a = rho * (1.0 + rho * total(Yd * HY, axis=1))
        Hl += a[:, None, None] * S[:, :, None] * S[:, None, :] - rho[:, None, None] * (
            HY[:, :, None] * S[:, None, :] + S[:, :, None] * HY[:, None, :])
        X[live], R[live], G[live], H[live], fresh[live[up]] = Xn, Rn, Gn, Hl, False
        live = live[Rn - Rl > ASCENT_FTOL * np.maximum(np.abs(Rn), 1.0)]
    return X


def estimate_b_opt(
    model: ManifoldModel,
    disc: Discretization,
    budget: int = 8,
    seed: int = 0,
    n_modes: int = 12,
) -> float:
    """Certified lower bound for the second-best zero-order constant.

    Ascends the ratio (||u||_{2*}^2 - S_d^2 ||grad u||^2) / ||u||_2^2 over the span
    of the low Laplace eigenfunctions Phi from all starts in one lockstep BFGS ascent
    (`_ascend`, at most ASCENT_ROUNDS rounds) of `_b_ratio_and_grad`, on Phi's Gram and
    stiffness matrices built once.  The best end's `_b_objective`, that formula for one
    row, is returned: the ratio at an actual u, hence a valid lower bound, and no end is
    below its start.  A start ends at the same point whatever the others, so the value is
    monotone nondecreasing in `budget` (seeds 0..budget-1).  `model` is unread: `disc` is.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    phi_mat = laplace_eigenpairs(disc, min(n_modes, disc.n)).matrix
    k, w = phi_mat.shape[1], disc.quad_weights
    dphi = disc.diff_matrix @ phi_mat
    basis = (phi_mat, phi_mat.T @ (w[:, None] * phi_mat), dphi.T @ (w[:, None] * dphi))
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
    ends = _ascend(lambda C: _b_ratio_and_grad(C, disc, basis), np.array(starts))
    return max(_b_objective(disc, basis, c) for c in ends)


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
