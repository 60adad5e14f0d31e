"""Set-up probe: import sobolev_lab and call once into each layer a workload uses.

run.py times this script, from process start to exit, in a fresh
interpreter: that is the cost every CLI invocation pays before its first
answer.  Calls use the smallest sizes, so the time is import, lazy imports
inside the layers and first-call costs, not numerical work.

    python3 benches/probe.py <workload>
"""

import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from sobolev_lab import cli  # noqa: E402
from sobolev_lab import constants as cst  # noqa: E402
from sobolev_lab import discretization as dz  # noqa: E402
from sobolev_lab import functionals as fn  # noqa: E402
from sobolev_lab import geometry as geo  # noqa: E402
from sobolev_lab import optimize as opt  # noqa: E402
from sobolev_lab import stability as st  # noqa: E402

N = dz.MIN_NODES


def _sphere_spec():
    model = geo.make_sphere(3)
    disc = dz.build(model, N)
    q = 4.0
    return fn.QuotientSpec(
        A=cst.a_opt_sphere_closed_form(3, q), B=model.total_volume ** (2.0 / q - 1.0),
        q=q, disc=disc,
    )


def discretization(tmpdir):
    disc = dz.build(geo.make_sphere(3), N)
    dz.build(geo.make_product(4), N)
    u = dz.laplace_eigenpairs(disc, 4).eigenfunctions[0]
    dz.inner(disc, u, u) + dz.lp_norm(disc, u, 4.0) + dz.gradient_norm_sq(disc, u)


def functionals(tmpdir):
    spec = _sphere_spec()
    u = fn.normalize(dz.DiscreteFunction(spec.disc, np.ones(N)), spec.q)
    fn.quotient(spec, u) + fn.deficit(spec, u)
    fn.gradient(spec, u)
    fn.hessian_matrix(spec, u)
    fn.tangent_frame(spec, u)


def constants(tmpdir):
    model = geo.make_sphere(3)
    disc = dz.build(model, N)
    cst.spectral_gap(disc)
    cst.estimate_b_opt(model, disc, budget=0, n_modes=2)


def optimize(tmpdir):
    spec = _sphere_spec()
    cp = opt.minimize(spec, dz.DiscreteFunction(spec.disc, np.ones(N)))
    opt.certify(spec, cp.u)
    if cp.kernel_dim:
        opt.reduced_functional(spec, cp, np.full(cp.kernel_dim, 0.05))


def stability(tmpdir):
    spec = _sphere_spec()
    st.ray_scan(spec, st.ray_from_constants(spec), "constants")
    st.distance_to_extremals(st.bubble(spec.disc, 1.0, 0.5), "bubbles_and_constants")


def cli_reproduce(tmpdir):
    cli.main(["reproduce", "--only", "strict_binding", "--out", f"{tmpdir}/r.json"])


def cli_spectrum(tmpdir):
    cli.main(["spectrum", "--n", str(N), "--k", "2", "--out", f"{tmpdir}/s.json"])


NUMERICS = (discretization, functionals, optimize, stability)
PROBES = {
    "reproduce": NUMERICS + (constants, cli_reproduce),
    "spectra": (discretization, cli_spectrum),
    "degenerate_fine": NUMERICS,
    "coarse_batch": NUMERICS,
}


def main(workload: str) -> None:
    with warnings.catch_warnings(), \
            tempfile.TemporaryDirectory(prefix=".benches-", dir=ROOT) as tmpdir:
        warnings.simplefilter("ignore")
        for probe in PROBES[workload]:
            probe(tmpdir)


if __name__ == "__main__":
    main(sys.argv[1])
