"""Resolution x dimension gate for the sphere Laplacian and what rests on it.

The weak-form Laplacian is self-adjoint in the quadrature inner product at
every resolution and dimension, its full spectrum passes the eigen-residual
guard, and the reproduction suite passes at every supported resolution.
"""

import numpy as np
import pytest

from sobolev_lab import reproduce as rep
from sobolev_lab.cli import EXIT_OK, main
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


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("d", [3, 8, 16])
def test_full_spectrum_passes_residual_guard(d, n):
    disc = build(make_sphere(d), n)
    sd = laplace_eigenpairs(disc, n)
    k = np.arange(10)
    assert np.allclose(sd.eigenvalues[:10], k * (k + d - 1.0), rtol=1e-10, atol=1e-10)


def test_spectrum_cli_at_fine_resolution_high_dimension(tmp_path):
    out = tmp_path / "spectrum.json"
    argv = ["spectrum", "--d", "16", "--n", "1024", "--k", "200", "--out", str(out)]
    assert main(argv) == EXIT_OK


@pytest.fixture(scope="session", params=[64, 128, 256, 512])
def suite_at_n(request):
    return request.param, rep.run_suite(n=request.param)


def test_reproduce_passes_at_every_resolution(suite_at_n):
    n, results = suite_at_n
    assert all(r["passed"] for r in results), f"n = {n}\n" + rep.format_table(results)
