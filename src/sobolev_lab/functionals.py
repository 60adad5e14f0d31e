"""The Sobolev quotient, its constraint manifold, and exact variations.

For a spec (A, B, q) the quotient is

    Q(u) = (A ||grad u||^2 + B ||u||^2) / ||u||_q^2,

minimized over the constraint set {u >= 0, ||u||_q = 1}.  On the tangent
space at u the first and second variations have closed forms; both are
implemented here together with the L^2 tangent projection

    pi_u(phi) = phi - (int u^{q-1} phi dVol) u.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .discretization import DiscreteFunction, Discretization, _check_same, lp_norm
from .geometry import ModelKind

POWER_FLOOR = 1e-300
SMALL_VALUE_FLAG = 1e-8
NORMALIZATION_TOL = 1e-8
BUBBLE_STARTS = (0.3, 0.6, 0.9)  # b of the bubble starts of the solvers


class MixedSignWarning(UserWarning):
    """A nominally nonnegative input changes sign; the quotient is still defined."""


class ConditioningWarning(UserWarning):
    """The power u^{q-2} is evaluated where u nearly vanishes."""


def sobolev_conjugate(d: int) -> float:
    """Critical exponent 2d/(d-2) for the W^{1,2} embedding."""
    return 2.0 * d / (d - 2.0)


def check_exponent(q: float, d: int) -> None:
    """Raise ValueError unless 2 < q <= 2* (up to 1e-12 above 2*)."""
    qmax = sobolev_conjugate(d)
    if not 2.0 < q <= qmax + 1e-12:
        raise ValueError(f"q must lie in (2, {qmax:g}], got {q}")


@dataclass(frozen=True)
class QuotientSpec:
    A: float
    B: float
    q: float
    disc: Discretization

    def __post_init__(self):
        if not (self.A > 0 and np.isfinite(self.A)):
            raise ValueError(f"A must be finite positive, got {self.A}")
        if not (self.B > 0 and np.isfinite(self.B)):
            raise ValueError(f"B must be finite positive, got {self.B}")
        check_exponent(self.q, self.disc.model.dim)


def bubble_profile(cos_t: np.ndarray, b: float, d: int) -> np.ndarray:
    """Sphere extremal profile (1 - b cos t)^{(2-d)/2}, b in (-1, 1); b < 0: pole at t = pi."""
    return (1.0 - b * cos_t) ** ((2.0 - d) / 2.0)


def bubble_starts(disc: Discretization) -> list:
    """Bubble profiles for b in BUBBLE_STARTS on the sphere; none on the product."""
    if disc.model.kind is not ModelKind.SPHERE_RADIAL:
        return []
    cos_t = np.cos(disc.nodes)
    return [bubble_profile(cos_t, b, disc.model.dim) for b in BUBBLE_STARTS]


def _nonzero(u: DiscreteFunction) -> None:
    if not np.any(u.values):
        raise ValueError("function is identically zero")


def quotient_parts(spec: QuotientSpec, U: np.ndarray, DU: np.ndarray):
    """A ||Du||_W^2 + B ||u||_W^2 and ||u||_q for each row u of U, with DU = U D^T.

    Q is the first over the square of the second.  Rows are summed by
    np.add.reduce, as np.sum does, and each root is a scalar pow, as in
    lp_norm (numpy's array pow differs in the last bit), so one row gives the
    bits of gradient_norm_sq, inner and lp_norm.  Square the norm as a scalar
    too: array ** 2 is x * x, not C pow.
    """
    w, total, root = spec.disc.quad_weights, np.add.reduce, 1.0 / spec.q
    num = spec.A * total(w * DU * DU, axis=-1) + spec.B * total(w * U * U, axis=-1)
    sums = total(w * np.abs(U) ** spec.q, axis=-1)
    if U.ndim == 1:
        return num, sums**root
    return num, np.array([s**root for s in sums.tolist()])


def _num_and_denom(spec: QuotientSpec, u: DiscreteFunction) -> tuple[float, float]:
    _check_same(spec.disc, u)
    _nonzero(u)
    num, norm = quotient_parts(spec, u.values, spec.disc.diff_matrix @ u.values)
    return float(num), float(norm) ** 2


def quotient(spec: QuotientSpec, u: DiscreteFunction) -> float:
    num, denom = _num_and_denom(spec, u)
    return num / denom


def deficit(spec: QuotientSpec, u: DiscreteFunction) -> float:
    """Q(u) - 1 with a single subtraction, stable near extremals."""
    num, denom = _num_and_denom(spec, u)
    return (num - denom) / denom


def normalize(u: DiscreteFunction, q: float) -> DiscreteFunction:
    """Rescale to unit L^q norm; wholly nonpositive inputs are sign-flipped."""
    _nonzero(u)
    v = u.values
    if np.all(v <= 0):
        v = -v
    elif np.any(v < 0) and np.any(v > 0):
        warnings.warn(
            "normalizing a mixed-sign function; it lies outside the nonnegative cone",
            MixedSignWarning,
            stacklevel=2,
        )
    s = lp_norm(u.disc, u, q)
    return DiscreteFunction(u.disc, v / s)


def check_normalized(spec: QuotientSpec, u: DiscreteFunction) -> None:
    s = lp_norm(spec.disc, u, spec.q)
    if abs(s - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"function is not L^q-normalized: ||u||_q = {s}")


def power_qm1(u: np.ndarray, q: float) -> np.ndarray:
    """Signed power |u|^{q-2} u used by the projection and Euler-Lagrange field."""
    return np.abs(u) ** (q - 2.0) * u


def power_qm2(u: np.ndarray, q: float) -> np.ndarray:
    """|u|^{q-2} with a floor; flags near-vanishing arguments for q < 3."""
    au = np.abs(u)
    if q < 3.0 and au.min() < SMALL_VALUE_FLAG:
        warnings.warn(
            f"u^(q-2) evaluated where min|u| = {au.min():.3e} < {SMALL_VALUE_FLAG}",
            ConditioningWarning,
            stacklevel=2,
        )
    return np.maximum(au, POWER_FLOOR) ** (q - 2.0)


def project_tangent(
    spec: QuotientSpec, u: DiscreteFunction, phi: DiscreteFunction
) -> DiscreteFunction:
    """L^2-project phi onto the tangent space {v : int u^{q-1} v dVol = 0}."""
    check_normalized(spec, u)
    uq1 = power_qm1(u.values, spec.q)
    coef = float(np.sum(spec.disc.quad_weights * uq1 * phi.values))
    return DiscreteFunction(spec.disc, phi.values - coef * u.values)


def euler_lagrange(spec: QuotientSpec, u: np.ndarray, theta: float) -> np.ndarray:
    """Euler-Lagrange field F = 2A(-Delta u) + 2B u - theta |u|^{q-2} u, of u or of each row."""
    F = 2.0 * spec.A * (u @ spec.disc.laplace_matrix.T) + 2.0 * spec.B * u  # L @ u for one u
    if theta:
        F = F - theta * power_qm1(u, spec.q)
    return F


def euler_lagrange_jacobian(spec: QuotientSpec, u: np.ndarray, theta: float, out=None):
    """Jacobian J = 2A(-Delta) + 2B - theta (q-1) diag(|u|^{q-2}) of the field in u, in `out`."""
    J = np.multiply(spec.disc.laplace_matrix, 2.0 * spec.A, out=out)
    J.flat[:: spec.disc.n + 1] += 2.0 * spec.B  # the diagonal, with no n x n temporary
    if theta:
        J.flat[:: spec.disc.n + 1] -= theta * (spec.q - 1.0) * power_qm2(u, spec.q)
    return J


def gradient(spec: QuotientSpec, u: DiscreteFunction) -> DiscreteFunction:
    """L^2-Riesz representative of the constrained first variation at u."""
    check_normalized(spec, u)
    # adjoint of the tangent projection applied to F(u, 0): F - <u, F> u^{q-1}
    F = euler_lagrange(spec, u.values, 0.0)
    coef = float(np.sum(spec.disc.quad_weights * u.values * F))
    return DiscreteFunction(spec.disc, F - coef * power_qm1(u.values, spec.q))


def hessian_form(
    spec: QuotientSpec,
    u: DiscreteFunction,
    phi: DiscreteFunction,
    eta: DiscreteFunction,
) -> float:
    """Constrained second variation, arguments tangent-projected first."""
    check_normalized(spec, u)
    p = project_tangent(spec, u, phi).values
    e = project_tangent(spec, u, eta).values
    disc = spec.disc
    qw = disc.quad_weights
    qv = quotient(spec, u)
    stiff = float(np.sum(qw * (disc.laplace_matrix @ p) * e))
    mass = float(np.sum(qw * p * e))
    lower = float(np.sum(qw * power_qm2(u.values, spec.q) * p * e))
    return 2.0 * spec.A * stiff + 2.0 * spec.B * mass - 2.0 * (spec.q - 1.0) * qv * lower


def hessian_matrix(spec: QuotientSpec, u: DiscreteFunction) -> np.ndarray:
    """Jacobian J(u, 2Q) of the Euler-Lagrange field in the quadrature-orthonormal frame.

    W^{1/2} J W^{-1/2}, symmetric up to rounding, as W(-Delta) is.  Its
    compression onto the tangent space (tangent_frame) is the constrained
    Hessian: the tangent projection is the identity there.
    """
    check_normalized(spec, u)
    sw = np.sqrt(spec.disc.quad_weights)
    S = euler_lagrange_jacobian(spec, u.values, 2.0 * quotient(spec, u))
    S *= sw[:, None]
    S /= sw[None, :]
    return S


def tangent_reflector(spec: QuotientSpec, u: DiscreteFunction) -> np.ndarray:
    """Unit v of the reflector I - 2 v v^T sending e_0 to -sign(z_0) z, z ~ W^{1/2} u^{q-1}."""
    z = np.sqrt(spec.disc.quad_weights) * power_qm1(u.values, spec.q)
    v = z / np.linalg.norm(z)
    v[0] += math.copysign(1.0, v[0] if v[0] != 0 else 1.0)
    return v / np.linalg.norm(v)


def tangent_frame(spec: QuotientSpec, u: DiscreteFunction) -> np.ndarray:
    """Orthonormal (in the quadrature-orthonormal frame) basis of T_u B.

    Columns z of the returned n x (n-1) matrix satisfy z . W^{1/2} u^{q-1} = 0,
    i.e. the corresponding functions phi = W^{-1/2} z are tangent at u.
    """
    v = tangent_reflector(spec, u)
    n = len(v)
    Z = np.outer(v, -2.0 * v[1:])
    Z.flat[n - 1 :: n] += 1.0  # the entries (j + 1, j): columns 1..n-1 of the identity
    return Z
