"""Constrained minimization of the Sobolev quotient and critical-point tools.

Minimization runs preconditioned projected-gradient descent on the unit L^q
sphere, a multistart's starts in lockstep.  Its step 1 is the nonlinear inverse
iteration u <- M^{-1}|u|^{q-2}u / ||.||_q, M = 2A(-Delta) + 2B, and iterates are
reflected into the nonnegative cone by |.|; neither raises the quotient.  Then a
Newton polish of each result runs in the bordered stationarity system

    2A(-Delta u) + 2B u - theta |u|^{q-2} u = 0,     int |u|^q dVol = 1.

Where Newton creeps along a Hessian kernel, at a degenerate minimum, the
polish corrects the kernel coordinates through the Lyapunov-Schmidt system.

Critical points are certified through the weak criticality identity and
equipped with the spectrum of the constrained Hessian on the tangent
space (at an exact constant, -Delta's shifted, in closed form), including
a kernel basis for the Lyapunov-Schmidt reduction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs, lu_factor, lu_solve, qr

from . import functionals as fn
from .discretization import (DiscreteFunction, SpectralData, _ritz, _spectral_data, inner,
                             laplace_eigenpairs)
from .functionals import QuotientSpec
from .geometry import ModelKind

KERNEL_THRESHOLD = 1e-6
NEWTON_MAX = 60
# minimize: projected-gradient rounds, the gradient residual at which the Newton
# polish takes over, its Newton steps, the residual that counts as converged, the
# tangent eigenpairs reported, and the plain steps before a kernel step (_polish).
MAX_ITER = 100
SWITCH_TOL = 1e-4
POLISH_NEWTON_MAX = 40
GRAD_TOL = 1e-8
SPECTRUM_SIZE = 8
STALL_STEPS = 3
KERNEL_GAP = 1e-2
KERNEL_STEPS = 2
TANGENT_BLOCK = 16  # hessian_spectrum_at off a constant: the block beyond k, its cap on solves
TANGENT_STEPS = 50
# Newton stops once its residual is below FLOOR_FACTOR * eps * ||terms||_W,
# the rounding floor of the stationarity equation at the current iterate.
FLOOR_FACTOR = 10.0
EPS = np.finfo(float).eps
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
    converged: bool
    iterations: int
    hessian_spectrum: SpectralData | None = None
    kernel_dim: int = 0
    kernel_basis: list = field(default_factory=list)
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


def hessian_spectrum_at(spec: QuotientSpec, u: DiscreteFunction, k: int) -> SpectralData:
    """Bottom-k eigenpairs of the constrained Hessian: J(u, 2Q) on the tangent space.

    At an exact constant J(u, 2Q) = 2A(-Delta) + a scalar on the W-complement of 1: the pairs are
    -Delta's but mode 0, tangent-projected, valued int |Dt phi|^2: 3e-15 from j(j+d-1), the solve's
    4e-13.  Elsewhere, shift-invert block iteration (Parlett 1998, ch. 14) from the smooth modes
    1 .. k + TANGENT_BLOCK on S = hessian_matrix = 2A(-Delta) + pot: one Cholesky of S - sigma,
    sigma < min(pot), the constraint g^T x = 0 (g ~ sqrt(W) u^{q-1}) by a Schur complement on
    C^-1 g, a QR per solve, and Rayleigh-Ritz (S Q through L) where the Ritz values predict every
    residual of the bottom k below its rounding floor FLOOR_FACTOR eps ||(|S| + |lambda|) |c|||,
    as _floor's; at most TANGENT_STEPS solves.
    """
    disc, n = spec.disc, spec.disc.n
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if np.all(u.values == u.values[0]):
        theta, sd = 2.0 * fn.quotient(spec, u), laplace_eigenpairs(disc, k + 1)
        lap = disc.quad_weights @ (disc.diff_matrix @ sd.matrix[:, 1:]) ** 2
        lams = fn.shift(spec, 2.0 * spec.A * lap, u.values[:1], theta)
        return SpectralData(lams, [fn.project_tangent(spec, u, f) for f in sd.eigenfunctions[1:]],
                            2.0 * spec.A * sd.residuals[1:])
    L, sw, A2 = disc.laplace_matrix, np.sqrt(disc.quad_weights)[:, None], 2.0 * spec.A
    pot = fn.shift(spec, 0.0, u.values, 2.0 * fn.quotient(spec, u))[:, None]
    C, sigma = fn.hessian_matrix(spec, u), float(pot.min()) - 1.0  # -Delta >= 0 in W
    abs_S = np.abs(C)
    C.flat[:: n + 1] -= sigma
    factor = cho_factor(C.T, overwrite_a=True, check_finite=False)  # Fortran order: in place
    j = np.arange(min(k + TANGENT_BLOCK, n - 1) + 1)
    if disc.model.kind is ModelKind.SPHERE_RADIAL:  # T_j(cos t); on the circle 1, cos s, sin s, ..
        V = np.cos(np.outer(disc.nodes, j))
    else:
        V = np.cos(np.outer(2.0 * math.pi / disc.model.length * disc.nodes, (j + 1) // 2)
                   - 0.5 * math.pi * (j % 2 == 0) * (j > 0))
    V = qr(sw * V, mode="economic", check_finite=False)[0]
    V[:, 0] = g = sw[:, 0] * fn.power_qm1(u.values, spec.q)
    X, excess, rate = cho_solve(factor, V, check_finite=False), 0.0, 0.0
    Cg, X = X[:, 0] / (g @ X[:, 0]), X[:, 1:]  # the constant's column solved for C^-1 g
    for _ in range(TANGENT_STEPS):
        X -= np.outer(Cg, g @ X)
        excess *= rate  # the floor excess predicted for X
        if excess > 1.0:
            V = qr(X, mode="economic", check_finite=False)[0]
        else:
            evals, V, R = _ritz(X, lambda Q: A2 * sw * (L @ (Q / sw)) + pot * Q)
            R -= np.outer(g, g @ R) / (g @ g)  # the tangent part of S c - lambda c
            res, Y = np.linalg.norm(R[:, :k], axis=0), np.abs(V[:, :k])
            floor = FLOOR_FACTOR * EPS * np.linalg.norm(abs_S @ Y + np.abs(evals[:k]) * Y, axis=0)
            excess = np.max(res / floor)
            if excess <= 1.0:
                return _spectral_data(disc, evals[:k], V[:, :k] / sw, res)
            rate = (evals[k - 1] - sigma) / (evals[-1] - sigma)  # the k-th residual's, per solve
        X = cho_solve(factor, V, check_finite=False)
    raise RuntimeError(f"tangent spectrum above its rounding floor after {TANGENT_STEPS} solves")


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
    fn.euler_lagrange_jacobian(spec, u, theta, out=J[:n, :n])
    J[:n, n], J[n, :n] = -p, spec.q * qw * p
    J[:n, n + 1 :], J[n + 1 :, :n] = -K, K.T * qw[None, :]
    return J


def _bordered_residual(spec: QuotientSpec, x: np.ndarray, K: np.ndarray, target: np.ndarray):
    """Residual of the bordered system of _bordered_newton at x = (u, theta, mu), or at each row
    of x, and its norm sqrt(||r_u||_W^2 + |r_border|^2)."""
    qw, n = spec.disc.quad_weights, spec.disc.n
    u, theta, mu = x[..., :n], x[..., n : n + 1], x[..., n + 1 :]
    r = np.concatenate([  # (M @ x.T).T is M @ x, bit for bit, for one x
        fn.euler_lagrange(spec, u, theta) - (K @ mu.T).T,
        np.add.reduce(qw * np.abs(u) ** spec.q, axis=-1, keepdims=True) - 1.0,
        ((K.T * qw[None, :]) @ u.T).T - target,
    ], axis=-1)
    border = r[..., n:]
    with np.errstate(over="raise"):  # an infinite norm under an infinite floor reads as converged
        return r, np.sqrt(r[..., :n] ** 2 @ qw + np.add.reduce(border * border, axis=-1))


def _floor(spec: QuotientSpec, x: np.ndarray, abs_L: np.ndarray):
    """FLOOR_FACTOR eps ||2A |L||u| + 2B |u| + |theta| |u|^{q-1}||_W at x or at each row of x:
    the rounding floor of the first bordered equation, abs_L = |L|."""
    n, au = spec.disc.n, np.abs(x[..., : spec.disc.n])
    terms = (2.0 * spec.A * (abs_L @ au.T).T + 2.0 * spec.B * au
             + np.abs(x[..., n : n + 1]) * au ** (spec.q - 1.0))
    with np.errstate(over="raise"):  # an infinite floor would certify any residual
        norm = np.sqrt(np.add.reduce(spec.disc.quad_weights * terms * terms, axis=-1))
    return FLOOR_FACTOR * EPS * norm


def _bordered_newton(spec: QuotientSpec, u: np.ndarray, theta: float, K: np.ndarray,
                     target: np.ndarray, max_iter: int = NEWTON_MAX, mu=None):
    """Damped Newton on the bordered system in (u, theta, mu), from mu = 0 unless given:

        2A(-Delta u) + 2B u - theta |u|^{q-2} u - K mu = 0,
        int |u|^q dVol = 1,     K^T W u = target,

    with K an n x l block (l = 0 for a plain polish).  Each step is halved until the residual
    norm drops; iteration stops once the norm is below the rounding floor of the terms of the
    first equation (_floor).  Returns the last u, theta and mu and whether it reached that floor.
    """
    n, abs_L = spec.disc.n, np.abs(spec.disc.laplace_matrix)
    x = np.concatenate([u, [theta], np.zeros(K.shape[1]) if mu is None else mu])
    r, norm = _bordered_residual(spec, x, K, target)
    for it in range(max_iter + 1):
        floor = _floor(spec, x, abs_L)
        if norm <= floor or it == max_iter:
            break
        J = _bordered_jacobian(spec, x[:n], x[n], K)
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, r, rcond=None)
        t = 1.0
        while True:
            trial = x - t * step
            trial_r, trial_norm = _bordered_residual(spec, trial, K, target)
            if trial_norm < norm or t < MIN_DAMPING:
                break
            t *= 0.5
        if not trial_norm < norm:
            break
        x, r, norm = trial, trial_r, trial_norm
    return x[:n], x[n], x[n + 1 :], bool(norm <= floor)


def _polish(spec: QuotientSpec, u: np.ndarray, theta: float) -> np.ndarray:
    """Bordered Newton (l = 0) from (u, theta), with kernel steps where it stalls.

    Near a quartic minimum Newton creeps along the Hessian kernel.  After three plain steps
    (STALL_STEPS) short of the floor, K spans the tangent eigenfunctions with eigenvalues below
    KERNEL_GAP times the largest of the bottom spectrum; the bordered system at kernel
    coordinates c gives mu(c), homogeneous of degree 3 in c - c*, so by Euler's identity
    c - 3 M^{-1} mu, M = dmu/dc, lands on c*.  Otherwise plain Newton continues.
    """
    disc, plain = spec.disc, (np.zeros((spec.disc.n, 0)), np.zeros(0))
    u, theta, _, done = _bordered_newton(spec, u, theta, *plain, STALL_STEPS)
    if done:
        return u
    u_q = fn.normalize(DiscreteFunction(disc, np.abs(u)), spec.q)
    sd = hessian_spectrum_at(spec, u_q, min(SPECTRUM_SIZE, disc.n - 1))
    lams = np.abs(sd.eigenvalues)
    K = np.compress(lams < KERNEL_GAP * lams.max(), sd.matrix, axis=1)  # C order; K[:, mask] is F
    if K.size:
        n1, l = disc.n + 1, K.shape[1]
        c = K.T @ (disc.quad_weights * u)
        v, eta, mu, _ = _bordered_newton(spec, u, theta, K, c)
        for _ in range(KERNEL_STEPS):  # M: the Jacobian solved against its border columns
            M = np.linalg.solve(_bordered_jacobian(spec, v, eta, K), np.eye(n1 + l, l, -n1))
            c = c - 3.0 * np.linalg.solve(M[n1:], mu)
            v, eta, mu, _ = _bordered_newton(spec, v, eta, K, c)
            if _bordered_newton(spec, v, eta, *plain, 0)[3]:
                return v
    return _bordered_newton(spec, u, theta, *plain, POLISH_NEWTON_MAX - STALL_STEPS)[0]


def _best(results: list):
    """Converged first; values within RANK_RTOL of the lowest tie; the lowest residual wins."""
    pool = [cp for cp in results if cp.converged] or results
    low = min(cp.value for cp in pool)
    tied = [cp for cp in pool if cp.value - low <= RANK_RTOL * abs(low)]
    return min(tied, key=lambda cp: cp.grad_residual)


def _minimize_starts(spec: QuotientSpec, starts: list) -> CriticalPoint:
    """Minimize from each start, polish each result and return the best (_best), with spectrum.

    The projected-gradient descent runs the starts in lockstep, as rows of one stack, on one
    preconditioner factorization.  Each round a row tries u + s (kappa M^{-1} u^{q-1} - u),
    kappa = <u, M u>, at its own step s (step 1: the inverse iterate), then sets s to
    min(1.5 s, 4) if Q did not rise, or else to 1.  It leaves once its gradient residual is
    below SWITCH_TOL, after MAX_ITER rounds, or when step 1 is rejected (only by rounding).
    """
    disc, q = spec.disc, spec.q
    inits = [fn.normalize(DiscreteFunction(disc, np.abs(s)), q) for s in starts]
    for u in inits:
        fn.check_normalized(spec, u)
    U, qvals = np.array([u.values for u in inits]), [fn.quotient(spec, u) for u in inits]
    # Summed by np.add.reduce (as np.sum does) in the order of gradient and normalize, roots
    # and squares taken as scalars row by row: one row's iterates are theirs bit for bit.
    qw, D, total = disc.quad_weights, disc.diff_matrix, np.add.reduce
    step, iterations, live = np.ones(len(U)), np.zeros(len(U), dtype=int), np.arange(len(U))
    lu = None  # factored in the first round with a live row: starts at a minimum skip it
    for _ in range(MAX_ITER):
        V = U[live]
        F, f = fn.euler_lagrange(spec, V, 0.0), fn.power_qm1(V, q)
        kappa = total(qw * V * F, axis=1)[:, None]
        G = F - kappa * f
        with np.errstate(over="ignore"):  # an overflow is reported just below, F's too: at a
            res = [math.sqrt(s) for s in total(qw * G * G, axis=1).tolist()]
            size = total(qw * F * F, axis=None)  # constant G can cancel to 0 where F overflows
        if not (all(map(math.isfinite, res)) and math.isfinite(size)):
            raise ValueError("non-finite gradient in projected-gradient descent")
        if min(res, default=0.0) < SWITCH_TOL:  # these rows leave; live keeps the others
            moving = [r >= SWITCH_TOL for r in res]
            live, V, f, kappa = live[moving], V[moving], f[moving], kappa[moving]
            if not live.size:
                break
        iterations[live] += 1
        if lu is None:  # W^{1,2}-type preconditioner: the Jacobian at theta = 0, free of u
            lu, piv = lu_factor(fn.euler_lagrange_jacobian(spec, U[0], 0.0))
            (getrs,) = get_lapack_funcs(("getrs",), (lu,))
        Y, info = getrs(lu, piv, f.T)
        if info:
            raise ValueError(f"getrs failed with info {info}")
        T = np.abs(V + step[live][:, None] * (kappa * Y.T - V))
        T /= np.array([s ** (1.0 / q) for s in total(qw * T**q, axis=1).tolist()])[:, None]
        num, norm = fn.quotient_parts(spec, T, T @ D.T)
        keep = []
        for i, t, num_i, norm_i in zip(live.tolist(), T, num.tolist(), norm.tolist()):
            if not abs(norm_i - 1.0) <= fn.NORMALIZATION_TOL:
                raise ValueError(f"trial is not L^q-normalized: ||u||_q = {norm_i}")
            trial_q = num_i / norm_i**2
            accepted = trial_q <= qvals[i] + 1e-14
            if accepted:
                U[i], qvals[i] = t, trial_q
            keep.append(accepted or step[i] > 1.0)  # a rejected step 1: the row leaves
            step[i] = min(step[i] * 1.5, 4.0) if accepted else 1.0
        live = live[keep]
    del lu  # n x n: freed before the polish and the spectrum build theirs
    results = []
    for u, qval, its in zip(U, qvals, iterations.tolist()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fn.MixedSignWarning)
            u = fn.normalize(DiscreteFunction(disc, _polish(spec, u, 2.0 * qval)), q)
        g = fn.gradient(spec, u)
        grad_residual = math.sqrt(inner(disc, g, g))
        results.append(CriticalPoint(u, fn.quotient(spec, u), grad_residual,
                                     grad_residual < GRAD_TOL, its))
    cp = _best(results)
    cp.hessian_spectrum = hessian_spectrum_at(spec, cp.u, min(SPECTRUM_SIZE, disc.n - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThresholdAmbiguityWarning)
        cp.kernel_basis = kernel_basis_at(cp.hessian_spectrum)
    cp.kernel_dim = len(cp.kernel_basis)
    return cp


def minimize(spec: QuotientSpec, init: DiscreteFunction) -> CriticalPoint:
    """Minimize the quotient over the unit L^q sphere from a given start."""
    return _minimize_starts(spec, [init.values])


def multistart_minimize(spec: QuotientSpec, seed: int = 0, extra_starts: int = 2) -> CriticalPoint:
    """Minimize from the documented start family in lockstep and keep the best result.

    Starts: constants, one first-eigenfunction perturbation (its sign flip is
    the same problem: a reflection on the sphere, a half-period shift on the
    product), bubbles on the sphere, and random_starts' smooth fields.  They
    descend together (_minimize_starts); only the best result gets a spectrum.
    """
    if extra_starts < 0:
        raise ValueError(f"extra_starts must be >= 0, got {extra_starts}")
    disc = spec.disc
    const = np.ones(disc.n)
    spec_data = laplace_eigenpairs(disc, min(6, disc.n))
    starts = [const, const + 0.3 * spec_data.eigenfunctions[1].values, *fn.bubble_starts(disc)]
    return _minimize_starts(spec, starts + random_starts(spec_data.matrix, seed, extra_starts))


def random_starts(phis: np.ndarray, seed: int, count: int) -> list:
    """count random smooth fields 1 + phis @ c, c_j ~ N(0, 1) 0.5^j, from the Philox stream seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    scale = 0.5 ** np.arange(phis.shape[1])
    return [1.0 + phis @ (rng.standard_normal(phis.shape[1]) * scale) for _ in range(count)]


def reduced_functional(
    spec: QuotientSpec, v: CriticalPoint, coords
) -> ReducedFunctionalSample:
    """Evaluate the Lyapunov-Schmidt reduced functional at kernel coordinates.

    Fixes the kernel component of u - v to `coords` and solves the bordered
    stationarity system for the orthogonal completion, so the gradient of the
    quotient at the returned point lies in the kernel: the one-row case of
    reduced_functional_stack.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    return reduced_functional_stack(spec, v, coords[None, :])[0]


def reduced_functional_stack(spec: QuotientSpec, v: CriticalPoint, coords) -> list:
    """The reduced functional (reduced_functional) at each row of a k x l stack of coordinates.

    The rows take chord steps in lockstep on the LU factors of the bordered Jacobian at v
    (nonsingular: the border removes the kernel), made once and kept on v while the spec is
    the same.  A round makes one solve with a right-hand side per live row and one product
    of the stack with L and with |L|.  A row leaves at its rounding floor (_floor), after
    NEWTON_MAX rounds, or when its chord step fails to halve its residual norm: then damped
    Newton (_bordered_newton) goes on from its last iterate for the rounds that are left.
    Returns a ReducedFunctionalSample per row, NaN where unconverged (one quotient_parts call).
    """
    C = np.asarray(coords, dtype=float)
    l = len(v.kernel_basis)
    if l == 0:
        raise ValueError("critical point has trivial kernel; reduction is degenerate-free")
    if C.ndim != 2 or C.shape[1] != l:
        raise ValueError(f"expected rows of {l} kernel coordinates, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("kernel coordinates must be finite")
    disc, n, abs_L = spec.disc, spec.disc.n, np.abs(spec.disc.laplace_matrix)
    K = np.column_stack([f.values for f in v.kernel_basis])  # n x l
    targets = K.T @ (disc.quad_weights * v.u.values) + C
    if v._chord is None or v._chord[0] is not spec:
        v._chord = (spec, lu_factor(_bordered_jacobian(spec, v.u.values, 2.0 * v.value, K)))
    X = np.zeros((len(C), n + 1 + l))  # rows (u, theta, mu), from (v + K c, 2 Q(v), 0)
    X[:, :n], X[:, n] = v.u.values + (K @ C.T).T, 2.0 * v.value
    R, norms = _bordered_residual(spec, X, K, targets)
    U, converged, live = X[:, :n].copy(), np.zeros(len(C), dtype=bool), np.arange(len(C))
    for it in range(NEWTON_MAX + 1):
        done = norms <= _floor(spec, X, abs_L)
        U[live[done]], converged[live[done]] = X[done, :n], True
        X, R, norms, live = X[~done], R[~done], norms[~done], live[~done]
        if it == NEWTON_MAX or not live.size:
            break
        trial = X - lu_solve(v._chord[1], R.T, check_finite=False).T
        trial_R, trial_norms = _bordered_residual(spec, trial, K, targets[live])
        halved = trial_norms <= 0.5 * norms
        for i, x in zip(live[~halved].tolist(), X[~halved]):
            U[i], _, _, converged[i] = _bordered_newton(
                spec, x[:n], x[n], K, targets[i], NEWTON_MAX - it, x[n + 1 :])
        X, R, norms, live = trial[halved], trial_R[halved], trial_norms[halved], live[halved]
    values, ok = np.full(len(C), math.nan), U[converged]
    num, norms = fn.quotient_parts(spec, ok, ok @ disc.diff_matrix.T)
    values[converged] = num / norms**2
    return [ReducedFunctionalSample(float(x), bool(c)) for x, c in zip(values, converged)]
