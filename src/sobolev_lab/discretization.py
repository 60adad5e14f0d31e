"""Quadrature, differentiation and weighted Laplacians on a ManifoldModel.

The sphere-radial problem is mapped by x = cos t onto (-1, 1), where the volume density becomes
the Gegenbauer weight (1-x^2)^{(d-2)/2}.  Nodes x_j and weights w_j come from the Gauss rule for
that weight, so the vanishing boundary density is handled analytically; the weight is even, so
the rule is solved on its nonnegative nodes from the half-size Jacobi matrix (Golub & Welsch
1969) and mirrored, x exactly odd and w exactly even.  The nodes' barycentric weights are
(-1)^j sqrt((1 - x_j^2) w_j) in closed form (Wang, Huybrechs & Vandewalle, Math. Comp. 83, 2014),
and so is d/dx's diagonal (d/2) x_j/(1 - x_j^2).
The radial Laplacian -Delta f = d*x*f_x - (1 - x^2)*f_xx has Gegenbauer
eigenfunctions and eigenvalues k*(k+d-1).  It is assembled in weak form,
W(-Delta) = Dt^T W Dt with W the quadrature weights: for degree < n both sides
of int f_t g_t dVol = int (-Delta f) g dVol have degree <= 2n - 2, and the rule
is exact to degree 2n - 1, so this is the collocation matrix in exact
arithmetic, while in floating point W(-Delta) is symmetric by construction.
Constants are projected out of both, Dt P and P^T W(-Delta) P, P = I - 1 w^T/Vol.
The circle factor of the product model uses uniform nodes and Fourier differentiation; there
-Delta f = -f''.  Both operators commute bit for bit with the reflection t -> pi - t (s -> -s on
the circle), and Dt is exactly odd by construction (its bottom rows are its top rows mirrored and
negated), so the sphere's Gram product and eigen-solve split into even and odd halves (Boyd 2001,
ch. 8), each solved from its Gegenbauer modes by one shift-invert step and Rayleigh-Ritz (Parlett
1998, ch. 14; the Ritz step, _ritz, also serves the tangent Hessian's block iteration in optimize);
the circle's circulant has Fourier eigenpairs in closed form (Trefethen 2000, ch. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, circulant, eigh, eigvalsh_tridiagonal, qr
from scipy.special import eval_gegenbauer

from .geometry import ManifoldModel, ModelKind, unit_sphere_volume

MIN_NODES = 16


class DiscretizationMismatchError(ValueError):
    """Raised when functions built on different discretizations are mixed."""


def _fourier_matrices(n: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier differentiation matrices D and D2 for period `length`, n even."""
    h = 2.0 * math.pi / n
    k = np.arange(1, n)
    col_d = np.zeros(n)
    col_d[1:] = 0.5 * (-1.0) ** k / np.tan(k * h / 2.0)
    col_d2 = np.zeros(n)
    col_d2[0] = -math.pi**2 / (3.0 * h**2) - 1.0 / 6.0
    m = np.minimum(k, n - k)  # col_d2[k] == col_d2[n - k]: D2 is exactly symmetric
    col_d2[1:] = -((-1.0) ** m) / (2.0 * np.sin(m * h / 2.0) ** 2)
    scale = 2.0 * math.pi / length
    return scale * circulant(col_d), scale**2 * circulant(col_d2)


@dataclass(frozen=True)
class Discretization:
    model: ManifoldModel
    n: int
    nodes: np.ndarray  # collocation points in [0, L]
    quad_weights: np.ndarray  # include the volume density
    diff_matrix: np.ndarray  # d/dt collocation operator
    laplace_matrix: np.ndarray  # -Delta on the reduced class
    mirror: np.ndarray  # node permutation of the reflection; L[mirror][:, mirror] == L
    _bubble_grid: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def integrate(self, values: np.ndarray) -> float:
        return float(self.quad_weights @ values)


@dataclass
class DiscreteFunction:
    disc: Discretization
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.disc.n,):
            raise ValueError(
                f"expected {self.disc.n} values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite function values")


@dataclass
class SpectralData:
    eigenvalues: np.ndarray
    eigenfunctions: list
    residuals: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The eigenfunctions' values as the columns of one n x k array."""
        return np.column_stack([f.values for f in self.eigenfunctions])


def _jacobi_offdiagonals(n: int, lam: float) -> np.ndarray:
    """The Jacobi off-diagonals b_0 .. b_n, b_0 = b_n = 0: x p_j = b_{j+1} p_{j+1} + b_j p_{j-1}."""
    k = np.arange(1.0, n)
    return np.pad(np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1))), 1)


def _gegenbauer_rule(n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Gegenbauer nodes, descending, and weights for (1 - x^2)^(lam - 1/2) on (-1, 1):
    x exactly odd and w exactly even.  The Jacobi matrix has a zero diagonal and off-diagonals b_k,
    so its square on e_1, e_3, .. is tridiagonal with the positive x_j^2 as eigenvalues (Golub &
    Welsch, Math. Comp. 23, 1969); then one Newton step and the weights of scipy's roots_jacobi."""
    h, c = n // 2, _jacobi_offdiagonals(n, lam)[1 : 2 * (n // 2) + 1]  # b_1 .. b_{2h}
    x = np.sqrt(eigvalsh_tridiagonal(c[::2] ** 2 + c[1::2] ** 2, c[1:-1:2] * c[2::2])[::-1])
    x = np.append(x, np.zeros(n % 2))  # at odd n x = 0, where C_n is exactly 0
    y = eval_gegenbauer(n, lam, x)
    dy = (-n * x * y + (n + 2 * lam - 1) * eval_gegenbauer(n - 1, lam, x)) / (1 - x * x)
    x -= y / dy
    w = 1.0 / (eval_gegenbauer(n - 1, lam, x) * dy)
    x, w = (np.concatenate([v, sign * v[h - 1 :: -1]]) for v, sign in ((x, -1.0), (w, 1.0)))
    return x, w * (math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0) / w.sum())


def _fold_weights(qw: np.ndarray) -> np.ndarray:
    """sqrt(W) on the nodes that stand for the reflection's halves: the top n // 2, each with its
    mate n - 1 - j, and at odd n the middle node, its own mate, at half its weight."""
    h = len(qw) // 2
    return np.sqrt(np.append(qw[:h], 0.5 * qw[h : len(qw) - h]))


def _weak_laplacian(Dt: np.ndarray, qw: np.ndarray) -> np.ndarray:
    """W(-Delta) = Dt^T W Dt, exactly symmetric and exactly reflection-symmetric, from two half-size
    Gram products: Dt is exactly odd, so it maps the even e_j + e_Rj to odd vectors and the odd
    e_j - e_Rj to even ones, and each half's Gram product runs over the top nodes only."""
    n, h, m = len(qw), len(qw) // 2, (len(qw) + 1) // 2
    K = np.empty((n, n))  # before the halves: allocated after them, it raised a run's peak RSS
    a = _fold_weights(0.5 * qw)  # the 1/2 of K = (Ke +- Ko) / 2 taken into the weights
    Ae = a[:h, None] * (Dt[:h, :m] + Dt[:h, ::-1][:, :m])  # at odd n, 2 Dt e_mid last
    Ke = Ae.T @ Ae  # exactly symmetric (numpy evaluates A^T A by syrk)
    del Ae
    # Ke <- P^T Ke P, P = I - u pe^T, u = (1, .., 1, 1/2) the constant's coordinates, pe = 2W/Vol,
    # so constants are annihilated to rounding (the odd half has none); the sum keeps Ke symmetric
    u, pe = np.where(np.arange(m) < h, 1.0, 0.5), qw[:m] * (2.0 / qw.sum())
    r = Ke @ u
    r -= 0.5 * (u @ r) * pe
    Ke -= np.outer(r, pe) + np.outer(pe, r)
    Ao = a[:, None] * (Dt[:m, :h] - Dt[:m, ::-1][:, :h])
    Ko = Ao.T @ Ao
    np.add(Ke[:h, :h], Ko, out=K[:h, :h])
    np.subtract(Ke[:h, :h], Ko, out=K[:h, : -h - 1 : -1])  # K[i, Rj]
    K[:h, h:m] = Ke[:h, h:]  # the middle node at odd n: even half only
    K[h:m, :m] = Ke[h:]
    K[h:m, m:] = Ke[h:, h - 1 :: -1]
    K[m:] = K[h - 1 :: -1, ::-1]  # K[Ri, Rj] = K[i, j]
    return K


def build(model: ManifoldModel, n: int) -> Discretization:
    if n < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {n}")
    d = model.dim
    if model.kind is ModelKind.SPHERE_RADIAL:
        a, h, m = (d - 2) / 2.0, n // 2, (n + 1) // 2
        x, wq = _gegenbauer_rule(n, a + 0.5)  # descending x: ascending t = arccos(x)
        t = np.arccos(x)
        qw = unit_sphere_volume(d - 1) * wq
        sin_t = np.sin(np.arccos(np.abs(x)))  # sqrt(1 - x^2) without its cancellation; even
        bw = (-1.0) ** np.arange(n) * sin_t * np.sqrt(wq)  # barycentric weights
        Dt = np.empty((n, n))  # the top m rows, then Dt[Ri, Rj] = -Dt[i, j]
        top = np.subtract(x[:m, None], x, out=Dt[:m])
        np.fill_diagonal(top, 1.0)
        np.divide(bw / bw[:m, None], top, out=top)
        np.fill_diagonal(top, (a + 1.0) * x[:m] / sin_t[:m] ** 2)  # d/dx's closed-form diagonal
        top *= -sin_t[:m, None]
        np.negative(Dt[h - 1 :: -1, ::-1], out=Dt[m:])  # bit for bit: x odd, sin_t and wq even
        s = Dt.sum(axis=1)
        Dt -= np.outer(0.5 * (s - s[::-1]), qw / qw.sum())  # Dt 1 = 0 to rounding, still odd
        L = _weak_laplacian(Dt, qw)
        L /= qw[:, None]
        return Discretization(model, n, t, qw, Dt, L, np.arange(n)[::-1])
    if n % 2 != 0:
        raise ValueError("periodic discretization requires even n")
    t = model.length * np.arange(n) / n
    qw = np.full(n, unit_sphere_volume(d - 1) * model.length / n)
    D, D2 = _fourier_matrices(n, model.length)
    return Discretization(model, n, t, qw, D, -D2, -np.arange(n) % n)


def _check_same(disc: Discretization, *funcs: DiscreteFunction) -> None:
    for f in funcs:
        if f.disc is not disc:
            raise DiscretizationMismatchError("function built on a different discretization")


def inner(disc: Discretization, f: DiscreteFunction, g: DiscreteFunction) -> float:
    """L^2 pairing against the manifold volume."""
    _check_same(disc, f, g)
    return float(np.sum(disc.quad_weights * f.values * g.values))


def lp_norm(disc: Discretization, f: DiscreteFunction, p: float) -> float:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    _check_same(disc, f)
    return float(np.sum(disc.quad_weights * np.abs(f.values) ** p) ** (1.0 / p))


def gradient_norm_sq(disc: Discretization, f: DiscreteFunction) -> float:
    _check_same(disc, f)
    df = disc.diff_matrix @ f.values
    return float(np.sum(disc.quad_weights * df * df))


def _spectral_data(disc: Discretization, values, phis, residuals) -> SpectralData:
    """Eigenpairs of phis' columns, each signed so its first entry with |phi| >= max/2 is > 0."""
    mags = np.abs(phis)
    first = np.argmax(mags >= 0.5 * mags.max(axis=0), axis=0)
    phis *= np.sign(phis[first, np.arange(phis.shape[1])])
    return SpectralData(values, [DiscreteFunction(disc, phi) for phi in phis.T.copy()], residuals)


def _ritz(X: np.ndarray, apply) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rayleigh-Ritz for symmetric S on span X, apply(Q) = S Q, by divide and conquer (MRRR took
    3x as long on the circle's (cos, sin) pairs): Ritz values, vectors, residuals S c - lambda c."""
    Q = qr(X, mode="economic", check_finite=False)[0]
    SQ = apply(Q)
    evals, Z = eigh(Q.T @ SQ, driver="evd", check_finite=False)
    vecs = Q @ Z
    return evals, vecs, SQ @ Z - vecs * evals


def _refine(S: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of S >= 0 near span V and their ||S c - lambda c||_2: one shift-invert step,
    (S + I)^-1 V by Cholesky, then _ritz (Parlett 1998, ch. 14)."""
    C = S.copy()
    C.flat[:: len(S) + 1] += 1.0
    evals, vecs, R = _ritz(cho_solve(cho_factor(C.T, overwrite_a=True), V), lambda Q: S @ Q)
    return evals, vecs, np.linalg.norm(R, axis=0)


def _halves(disc: Discretization, k: int) -> SpectralData:
    """The sphere's k smallest -Delta eigenpairs, from its exact Gegenbauer modes, half by half."""
    n, h, L, qw = disc.n, disc.n // 2, disc.laplace_matrix, disc.quad_weights
    a, m, x = _fold_weights(qw), n - h, np.cos(disc.nodes[: n - h])
    b, P = _jacobi_offdiagonals(n, 0.5 * (disc.model.dim - 1)), np.zeros((k + 1, m))
    P[1] = math.sqrt(2.0 / qw.sum()) * a  # P[j + 1] = sqrt(2) a p_j on the top nodes
    for j in range(1, k):
        P[j + 1] = (x * P[j] - b[j - 1] * P[j - 1]) / b[j]
    values, residuals, phis = np.empty(k), np.empty(k), np.zeros((n, k))
    # F^T S F, S = sqrt(W) L / sqrt(W), on the even frame (e_j + e_Rj)/sqrt(2), e_mid (even degrees)
    # and the odd frame (e_j - e_Rj)/sqrt(2) (odd degrees, none at k = 1), from slices of L
    for fold, s, i in ((np.add, m, 0), (np.subtract, h, 1))[: min(k, 2)]:
        block = fold(L[:s, :s], L[:s, ::-1][:, :s])
        block *= a[:s, None]
        block *= a[:s] / qw[:s]
        values[i::2], vecs, residuals[i::2] = _refine(block, P[i + 1 :: 2, :s].T)
        phis[:s, i::2] = vecs * (math.sqrt(0.5) / a[:s, None])
    phis[n - h :] = phis[h - 1 :: -1] * (-1.0) ** np.arange(k)  # degree j has parity (-1)^j
    order = np.argsort(values, kind="stable")
    return _spectral_data(disc, values[order], phis[:, order], residuals[order])


def _fourier_modes(disc: Discretization, k: int) -> SpectralData:
    """The k smallest modes cos m = 0..n/2, then sin m = 1..n/2-1, stably sorted by the real DFT of
    L's first column (cos first in each exact tie), each evaluated on 0..n/2 and reflected."""
    n, h, L, sw = disc.n, disc.n // 2, disc.laplace_matrix, np.sqrt(disc.quad_weights)[:, None]
    m = np.concatenate([np.arange(h + 1), np.arange(1, h)])
    lam = np.fft.rfft(L[:, 0]).real[m]
    order = np.argsort(lam, kind="stable")[:k]
    lam, odd = lam[order], order > h
    angles = (2.0 * math.pi / n) * (np.outer(np.arange(h + 1), m[order]) % n)
    half = np.where(odd, np.sin(angles), np.cos(angles))
    half[np.ix_([0, h], odd)] = 0.0
    phis = np.concatenate([half, np.where(odd, -1.0, 1.0) * half[h - 1 : 0 : -1]])
    phis /= np.linalg.norm(sw * phis, axis=0)
    return _spectral_data(disc, lam, phis, np.linalg.norm(sw * (L @ phis - phis * lam), axis=0))


def laplace_eigenpairs(disc: Discretization, k: int) -> SpectralData:
    """k smallest eigenpairs of -Delta, quadrature-orthonormal eigenfunctions: on the sphere
    from its even and odd halves, on the circle its Fourier modes, cos before sin."""
    if not 1 <= k <= disc.n:
        raise ValueError(f"k must be in [1, {disc.n}], got {k}")
    sd = (_halves if disc.model.kind is ModelKind.SPHERE_RADIAL else _fourier_modes)(disc, k)
    scale = max(1.0, abs(sd.eigenvalues[-1]))
    if np.any(sd.residuals > 1e-8 * scale):
        raise RuntimeError(f"eigen-solve residuals too large: {sd.residuals.max():.3e} "
                           f"(scale {scale:.3e})")
    return sd
