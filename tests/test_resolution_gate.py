"""Resolution x dimension gate for the sphere Laplacian and what rests on it.

The weak-form Laplacian is self-adjoint in the quadrature inner product at
every resolution and dimension, its full spectrum passes the eigen-residual
guard and equals j(j+d-1), the derivative is exact on every Gegenbauer mode
of the grid, and the reproduction suite passes at every supported resolution.
"""

import json

import numpy as np
import pytest

from sobolev_lab import reproduce as rep
from sobolev_lab.cli import EXIT_OK, format_table, main
from sobolev_lab.discretization import build, laplace_eigenpairs
from sobolev_lab.geometry import make_sphere


@pytest.mark.parametrize("n", [64, 256, 512, 1024])
@pytest.mark.parametrize("d", [3, 8, 16])
def test_laplacian_self_adjoint_in_quadrature(d, n):
    # W^{1/2} (-Delta) W^{-1/2} is symmetric to rounding (relative Frobenius)
    disc = build(make_sphere(d), n)
    sw = np.sqrt(disc.quad_weights)
    S = (sw[:, None] * disc.laplace_matrix) / sw[None, :]
    assert np.linalg.norm(S - S.T) <= 1e-13 * np.linalg.norm(S)


@pytest.mark.parametrize("n", [64, 256, 512, 1024])
@pytest.mark.parametrize("d", [3, 8, 16])
def test_full_spectrum_passes_residual_guard(d, n):
    # all n eigenvalues are j(j+d-1), relative to max(lambda_j, lambda_1) = max(lambda_j, d)
    disc = build(make_sphere(d), n)
    sd = laplace_eigenpairs(disc, n)
    j = np.arange(n)
    exact = j * (j + d - 1.0)
    assert np.all(np.abs(sd.eigenvalues - exact) <= 1e-10 * np.maximum(exact, d))


def test_spectrum_cli_at_fine_resolution_high_dimension(tmp_path):
    out = tmp_path / "spectrum.json"
    argv = ["spectrum", "--d", "16", "--n", "1024", "--k", "200", "--out", str(out)]
    assert main(argv) == EXIT_OK
    values = np.array(json.loads(out.read_text())["eigenvalues"])
    j = np.arange(200)
    exact = j * (j + 15.0)
    assert len(values) == 200
    assert np.all(np.abs(values - exact) <= 1e-10 * np.maximum(exact, 16.0))


def _orthonormal_modes(x, weights, a, k):
    # the first k polynomials orthonormal in sum(weights * p_i * p_j), weights those of
    # (1 - x^2)^a, by the Gegenbauer three-term recurrence x p_j = b_{j+1} p_{j+1} + b_j p_{j-1}
    j = np.arange(1, k)
    b = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a - 1.0) * (2.0 * j + 2.0 * a + 1.0)))
    P = np.empty((len(x), k))
    P[:, 0] = 1.0 / np.sqrt(weights.sum())
    P[:, 1] = x * P[:, 0] / b[0]
    for i in range(1, k - 1):
        P[:, i + 1] = (x * P[:, i] - b[i - 1] * P[:, i - 1]) / b[i]
    return P


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("d", [3, 8, 16])
def test_diff_matrix_is_exact_on_every_gegenbauer_mode(d, n):
    # d/dt p_j = -sin t p_j'(x) and p_j' = sqrt(lambda_j) q_{j-1}, q orthonormal for the
    # weight (1 - x^2)^{a+1}: the quadrature is exact on both, so this is the W-norm error
    disc = build(make_sphere(d), n)
    a, qw = (d - 2) / 2.0, disc.quad_weights
    x, sin_t = np.cos(disc.nodes), np.sin(disc.nodes)
    P = _orthonormal_modes(x, qw, a, n)
    assert np.max(np.abs(P.T @ (qw[:, None] * P) - np.eye(n))) <= 1e-10
    lam = np.arange(n) * (np.arange(n) + d - 1.0)
    exact = np.zeros((n, n))
    exact[:, 1:] = -sin_t[:, None] * np.sqrt(lam[1:]) * _orthonormal_modes(
        x, qw * sin_t**2, a + 1.0, n - 1)
    err = np.sqrt(qw @ (disc.diff_matrix @ P - exact) ** 2)
    assert np.all(err <= 1e-9 * np.sqrt(np.maximum(lam, 1.0)))


@pytest.fixture(scope="session", params=[64, 128, 256, 512])
def suite_at_n(request):
    return request.param, rep.run_suite(n=request.param)


def test_reproduce_passes_at_every_resolution(suite_at_n):
    n, results = suite_at_n
    assert all(r["passed"] for r in results), f"n = {n}\n" + format_table(results)
