"""Constrained minimization of the Sobolev quotient and critical-point tools.

Minimization runs preconditioned projected-gradient descent on the unit
L^q sphere (iterates reflected into the nonnegative cone by absolute
value, which never increases the quotient), followed by a Newton polish
of the bordered stationarity system

    2A(-Delta u) + 2B u - theta |u|^{q-2} u = 0,     int |u|^q dVol = 1.

Critical points are certified through the weak criticality identity and
equipped with the spectrum of the constrained Hessian on the tangent
space, including a kernel basis for the Lyapunov-Schmidt reduction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from . import functionals as fn
from .discretization import DiscreteFunction, SpectralData, frame_eigenpairs, laplace_eigenpairs
from .functionals import QuotientSpec

KERNEL_THRESHOLD = 1e-6
NEWTON_MAX = 60
# minimize: projected-gradient iterations, the gradient residual at which the
# Newton polish takes over, the polish's Newton steps, the residual that counts
# as converged, and the number of tangent Hessian eigenpairs reported.
MAX_ITER = 400
SWITCH_TOL = 1e-4
POLISH_NEWTON_MAX = 40
GRAD_TOL = 1e-8
SPECTRUM_SIZE = 8
# Newton stops once its residual is below FLOOR_FACTOR * eps * ||terms||_W,
# the rounding floor of the stationarity equation at the current iterate.
FLOOR_FACTOR = 100.0
MIN_DAMPING = 1e-6
# multistart_minimize: values within this relative distance of the lowest tie
RANK_RTOL = 1e-12


class ThresholdAmbiguityWarning(UserWarning):
    """A Hessian eigenvalue sits near the kernel threshold."""


@dataclass
class CriticalPoint:
    u: DiscreteFunction
    value: float
    grad_residual: float
    hessian_spectrum: SpectralData
    kernel_dim: int
    kernel_basis: list
    converged: bool
    iterations: int
    _chord: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class ReducedFunctionalSample:
    value: float
    inner_converged: bool


def certify(spec: QuotientSpec, u: DiscreteFunction) -> float:
    """Max-norm residual of the criticality identity A(-Delta u) + B u - Q u^{q-1}."""
    fn.check_normalized(spec, u)
    F = fn.euler_lagrange(spec, u.values, 2.0 * fn.quotient(spec, u))
    return 0.5 * float(np.max(np.abs(F)))


def _l2_norm(spec: QuotientSpec, values: np.ndarray) -> float:
    return math.sqrt(float(np.sum(spec.disc.quad_weights * values * values)))


def hessian_spectrum_at(spec: QuotientSpec, u: DiscreteFunction, k: int) -> SpectralData:
    """Bottom-k eigenpairs of the constrained Hessian Z^T H Z on the tangent space.

    Z = (I - 2 v v^T)[:, 1:], so Z^T H Z is a block of a rank-two update of H.
    """
    H, v = fn.hessian_matrix(spec, u), fn.tangent_reflector(spec, u)
    Hv, vH = H @ v, v @ H
    # H - 2 (v vH^T + Hv v^T) + 4 (v.Hv) v v^T in place, with one n x n buffer
    outer = np.outer(v, vH)
    outer += np.outer(Hv, v)
    H -= np.multiply(outer, 2.0, out=outer)
    H += np.multiply(np.outer(v, v, out=outer), 4.0 * float(v @ Hv), out=outer)
    del outer  # freed before tangent_frame builds its n x (n-1) frame
    return frame_eigenpairs(spec.disc, H[1:, 1:], k, fn.tangent_frame(spec, u))


def kernel_basis_at(spectrum: SpectralData) -> list:
    """Tangent eigenfunctions with |eigenvalue| below KERNEL_THRESHOLD * spectral scale.

    The scale is the largest magnitude in the bottom tangent spectrum, which
    does not grow with the resolution the way the operator norm does.
    """
    lams = np.abs(spectrum.eigenvalues)
    cut = KERNEL_THRESHOLD * max(1.0, float(np.max(lams)))
    if np.any((lams > cut / 10.0) & (lams < cut * 10.0)):
        warnings.warn(
            f"Hessian eigenvalue within 10x of kernel threshold {cut:.3e}",
            ThresholdAmbiguityWarning,
            stacklevel=2,
        )
    return [f for lam, f in zip(spectrum.eigenvalues, spectrum.eigenfunctions) if abs(lam) < cut]


def _bordered_jacobian(spec: QuotientSpec, u: np.ndarray, theta: float, K: np.ndarray):
    """Jacobian in (u, theta, mu) of the bordered system of _bordered_newton."""
    qw, n, l, p = spec.disc.quad_weights, spec.disc.n, K.shape[1], fn.power_qm1(u, spec.q)
    J = np.zeros((n + 1 + l, n + 1 + l))
    J[:n, :n] = fn.euler_lagrange_jacobian(spec, u, theta)
    J[:n, n], J[n, :n] = -p, spec.q * qw * p
    J[:n, n + 1 :], J[n + 1 :, :n] = -K, K.T * qw[None, :]
    return J


def _bordered_newton(spec: QuotientSpec, u: np.ndarray, theta: float, K: np.ndarray,
                     target: np.ndarray, max_iter: int = NEWTON_MAX, chord=None):
    """Damped Newton on the bordered system in (u, theta, mu):

        2A(-Delta u) + 2B u - theta |u|^{q-2} u - K mu = 0,
        int |u|^q dVol = 1,     K^T W u = target,

    with K an n x l block (l = 0 for a plain polish).  Given `chord`, LU
    factors of the Jacobian near the solution, it takes chord steps until one
    fails to halve the residual norm, then Newton steps from the last iterate.
    Each Newton step is halved until the residual norm drops; iteration stops
    once the norm is below the rounding floor of the terms of the first
    equation.  Returns the last u and whether it reached that floor.
    """
    disc = spec.disc
    qw = disc.quad_weights
    A, B, q = spec.A, spec.B, spec.q
    abs_L = np.abs(disc.laplace_matrix)
    n, l = disc.n, K.shape[1]
    KW = K.T * qw[None, :]

    def residual(x):
        u, theta, mu = x[:n], x[n], x[n + 1 :]
        r = np.concatenate([
            fn.euler_lagrange(spec, u, theta) - K @ mu,
            [float(np.sum(qw * np.abs(u) ** q)) - 1.0],
            KW @ u - target,
        ])
        return r, math.sqrt(float(qw @ r[:n] ** 2 + r[n:] @ r[n:]))

    x = np.concatenate([u, [theta], np.zeros(l)])
    r, norm = residual(x)
    for it in range(max_iter + 1):
        au = np.abs(x[:n])
        terms = 2.0 * A * (abs_L @ au) + 2.0 * B * au + abs(x[n]) * au ** (q - 1.0)
        floor = FLOOR_FACTOR * np.finfo(float).eps * _l2_norm(spec, terms)
        if norm <= floor or it == max_iter:
            break
        if chord is not None:
            trial = x - lu_solve(chord, r, check_finite=False)
            trial_r, trial_norm = residual(trial)
            if trial_norm <= 0.5 * norm:
                x, r, norm = trial, trial_r, trial_norm
                continue
            chord = None
        J = _bordered_jacobian(spec, x[:n], x[n], K)
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, r, rcond=None)
        t = 1.0
        while True:
            trial = x - t * step
            trial_r, trial_norm = residual(trial)
            if trial_norm < norm or t < MIN_DAMPING:
                break
            t *= 0.5
        if not trial_norm < norm:
            break
        x, r, norm = trial, trial_r, trial_norm
    return x[:n], bool(norm <= floor)


def minimize(spec: QuotientSpec, init: DiscreteFunction) -> CriticalPoint:
    """Minimize the quotient over the unit L^q sphere from a given start."""
    disc = spec.disc
    if not np.any(init.values):
        raise ValueError("initial guess is identically zero")
    u = fn.normalize(DiscreteFunction(disc, np.abs(init.values)), spec.q)
    fn.check_normalized(spec, u)
    qval = fn.quotient(spec, u)
    u = u.values
    # W^{1,2}-type preconditioner for the L^2 gradient: the Jacobian at theta = 0
    lu, piv = lu_factor(fn.euler_lagrange_jacobian(spec, u, 0.0))
    (getrs,) = get_lapack_funcs(("getrs",), (lu,))
    # Raw arrays, summed by np.add.reduce (as np.sum does) in the order of
    # gradient and normalize, so the iterates are theirs bit for bit; a
    # non-finite entry makes a sum non-finite, so scalar tests keep their checks.
    qw, D, q, total = disc.quad_weights, disc.diff_matrix, spec.q, np.add.reduce
    step = 1.0
    iterations = 0
    while iterations < MAX_ITER:
        F = fn.euler_lagrange(spec, u, 0.0)
        g = F - float(total(qw * u * F)) * fn.power_qm1(u, q)
        with np.errstate(over="ignore"):  # an overflow is reported just below
            res = math.sqrt(float(total(qw * g * g)))
        if not math.isfinite(res):
            raise ValueError("non-finite gradient in projected-gradient descent")
        if res < SWITCH_TOL:
            break
        iterations += 1
        p, info = getrs(lu, piv, g)
        if info:
            raise ValueError(f"getrs failed with info {info}")
        for _ in range(40):
            trial = np.abs(u - step * p)
            if not trial.any():
                step *= 0.5
                continue
            trial = trial / float(total(qw * trial**q) ** (1.0 / q))
            num, norm = fn.quotient_parts(spec, trial, D @ trial)
            norm = float(norm)
            if not abs(norm - 1.0) <= fn.NORMALIZATION_TOL:
                raise ValueError(f"trial is not L^q-normalized: ||u||_q = {norm}")
            trial_q = float(num) / norm**2
            if trial_q <= qval + 1e-14:
                u, qval = trial, trial_q
                step = min(step * 1.5, 4.0)
                break
            step *= 0.5
        else:
            break
    del lu  # n x n: freed before the polish and the spectrum build theirs
    polished, _ = _bordered_newton(
        spec, u, 2.0 * qval, np.zeros((disc.n, 0)), np.zeros(0), POLISH_NEWTON_MAX
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fn.MixedSignWarning)
        u = fn.normalize(DiscreteFunction(disc, polished), spec.q)
    grad_residual = _l2_norm(spec, fn.gradient(spec, u).values)
    qval = fn.quotient(spec, u)
    converged = grad_residual < GRAD_TOL
    k = min(SPECTRUM_SIZE, disc.n - 1)
    spectrum = hessian_spectrum_at(spec, u, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThresholdAmbiguityWarning)
        kernel = kernel_basis_at(spectrum)
    return CriticalPoint(
        u=u,
        value=qval,
        grad_residual=grad_residual,
        hessian_spectrum=spectrum,
        kernel_dim=len(kernel),
        kernel_basis=kernel,
        converged=converged,
        iterations=iterations,
    )


def multistart_minimize(spec: QuotientSpec, seed: int = 0, extra_starts: int = 2) -> CriticalPoint:
    """Run minimize from the documented start family and keep the best result.

    Starts: constants, one first-eigenfunction perturbation (its sign flip is
    the same problem: a reflection on the sphere, a half-period shift on the
    product), bubbles on the sphere, and seeded random smooth fields.  Of the
    converged results (of all, if none converged), those within RANK_RTOL of
    the lowest value tie, and the lowest gradient residual among them wins.
    """
    disc = spec.disc
    const = np.ones(disc.n)
    spec_data = laplace_eigenpairs(disc, min(6, disc.n))
    phi1 = spec_data.eigenfunctions[1].values
    starts = [const, const + 0.3 * phi1, *fn.bubble_starts(disc)]
    rng = np.random.Generator(np.random.Philox(seed))
    phis = np.column_stack([f.values for f in spec_data.eigenfunctions])
    for _ in range(extra_starts):
        coeffs = rng.standard_normal(phis.shape[1]) * 0.5 ** np.arange(phis.shape[1])
        starts.append(const + phis @ coeffs)
    results = [minimize(spec, DiscreteFunction(disc, s)) for s in starts]
    pool = [cp for cp in results if cp.converged] or results
    low = min(cp.value for cp in pool)
    tied = [cp for cp in pool if cp.value - low <= RANK_RTOL * abs(low)]
    return min(tied, key=lambda cp: cp.grad_residual)


def reduced_functional(
    spec: QuotientSpec, v: CriticalPoint, coords
) -> ReducedFunctionalSample:
    """Evaluate the Lyapunov-Schmidt reduced functional at kernel coordinates.

    Fixes the kernel component of u - v to `coords` and solves the bordered
    stationarity system for the orthogonal completion, so the gradient of the
    quotient at the returned point lies in the kernel.  It takes chord steps on
    the LU factors of the bordered Jacobian at v (nonsingular: the border
    removes the kernel), made once and kept on v while the spec is the same.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    l = len(v.kernel_basis)
    if l == 0:
        raise ValueError("critical point has trivial kernel; reduction is degenerate-free")
    if coords.shape != (l,):
        raise ValueError(f"expected {l} kernel coordinates, got {coords.shape}")
    disc = spec.disc
    K = np.column_stack([f.values for f in v.kernel_basis])  # n x l
    target = K.T @ (disc.quad_weights * v.u.values) + coords
    if v._chord is None or v._chord[0] is not spec:
        v._chord = (spec, lu_factor(_bordered_jacobian(spec, v.u.values, 2.0 * v.value, K)))
    u, converged = _bordered_newton(
        spec, v.u.values + K @ coords, 2.0 * v.value, K, target, chord=v._chord[1]
    )
    value = fn.quotient(spec, DiscreteFunction(disc, u)) if converged else math.nan
    return ReducedFunctionalSample(value=value, inner_converged=converged)
