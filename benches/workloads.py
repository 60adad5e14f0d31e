"""The four benchmark workloads, each a pass over checked operations.

An operation is one user-level question: one reproduce criterion, one
``spectrum`` call, one (spec, n) pipeline, one multistart or one sampled
function.  It fails when any of its checks fails or when it raises.  Every
tolerance is relative to the scale of the quantity it tests.

`make(workload, seed, tmpdir)` draws the workload's random inputs from a
Philox stream keyed by `seed` and returns one pass as a list of steps.  A
step runs one or more operations and returns one ``(operation name, failed
checks)`` pair per operation.  The package receives only the generated
inputs.  All calls go through module attributes, so the tracer sees them.

Every spec uses the package's default constants for its model: ``A_opt``
(``a_opt_sphere_closed_form`` on the sphere, ``a_opt_product_critical`` on
the product at the critical exponent) and ``B = Vol^(2/q - 1)``, which is
``beta`` at the critical exponent.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from sobolev_lab import cli
from sobolev_lab import constants as cst
from sobolev_lab import discretization as dz
from sobolev_lab import functionals as fn
from sobolev_lab import geometry as geo
from sobolev_lab import optimize as opt
from sobolev_lab import stability as st
from tracer import CRITERIA

# Eigenvalue error relative to max(exact eigenvalue, first nonzero one),
# about ten times the worst error over the spectra grid on the seed code
# (1.4e-9 on the product, 7.2e-12 on the sphere).
EIGEN_TOL = {"sphere": 1e-10, "product": 2e-8}
SPECTRUM_K = 16

# Criticality residual relative to the size of the terms it balances,
# Q * max|u|^(q-1); |Q - 1| is already relative.
CERTIFY_TOL = 1e-8
VALUE_TOL = 1e-8
SLOPE_TOL = 0.05
LOJASIEWICZ_TOL = 0.1
DEGENERATE_EXPONENT = 4.0
QUADRATIC_EXPONENT = 2.0
DEFICIT_FLOOR = -1e-8
# sampled functions per step of coarse_batch; each step builds its own S^3 grid
SAMPLE_BATCH = 50

# (model, d, q); q None is the critical exponent 2d/(d-2).
DEGENERATE_SPECS = (
    ("sphere", 3, 4.0),
    ("sphere", 8, 2.5),
    ("product", 4, None),
    ("product", 8, None),
)

# Operations that fail on the seed code, from defects listed in ROADMAP
# aim 3.  They count as failed operations; only a failure outside this set
# makes a run incorrect.
KNOWN_DEFECTS = {
    "degenerate_fine": frozenset({
        "sphere-d3-q4-n512",  # reduced_functional never converges: Lojasiewicz NaN
        "product-d4-q2star-n512",  # same
        "control-n1024",  # kernel cut 1e-6*||H||_2 grows like n^2: spurious kernel
    }),
}


def exact_eigenvalues(model: str, d: int, k: int) -> np.ndarray:
    """The k lowest eigenvalues of -Delta on the reduced class, with multiplicity."""
    j = np.arange(k, dtype=float)
    if model == "sphere":
        return j * (j + d - 1.0)
    length = geo.make_product(d).length
    return (2.0 * math.pi * np.ceil(j / 2.0) / length) ** 2


def spec_name(model: str, d: int, q) -> str:
    return f"{model}-d{d}-q{'2star' if q is None else format(q, 'g')}"


def default_spec(model: str, d: int, n: int, q=None, a_factor: float = 1.0):
    manifold = geo.make_sphere(d) if model == "sphere" else geo.make_product(d)
    disc = dz.build(manifold, n)
    q = fn.sobolev_conjugate(d) if q is None else q
    if model == "sphere":
        a_opt = cst.a_opt_sphere_closed_form(d, q)
    else:
        a_opt = cst.a_opt_product_critical(d)
    B = manifold.total_volume ** (2.0 / q - 1.0)
    return fn.QuotientSpec(A=a_factor * a_opt, B=B, q=q, disc=disc)


def _run_cli(argv: list, out: str):
    """cli.main(argv + ["--out", out]) with its stdout muted: (exit code, report or None)."""
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", out])
    if not os.path.exists(out):
        return code, None
    with open(out) as handle:
        return code, json.load(handle)


def _attempt(name, operation):
    """Run one operation; a raised exception is one more failed check."""
    try:
        failures = operation()
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed operation
        failures = [f"raised {exc!r}"]
    return name, failures


def _step(name, operation, *args):
    """A step that runs one operation."""
    return lambda: [_attempt(name, lambda: operation(*args))]


def _expect(failures: list, ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def _check_critical_point(spec, cp, kernel_dim: int, failures: list) -> None:
    u = cp.u.values
    residual = opt.certify(spec, cp.u)
    scale = cp.value * float(np.max(np.abs(u))) ** (spec.q - 1.0)
    _expect(failures, cp.converged, f"not converged (grad residual {cp.grad_residual:.2e})")
    _expect(failures, residual <= CERTIFY_TOL * scale,
            f"certify {residual:.2e} > {CERTIFY_TOL:g} * {scale:.3g}")
    _expect(failures, abs(cp.value - 1.0) <= VALUE_TOL, f"Q - 1 = {cp.value - 1.0:.2e}")
    _expect(failures, cp.kernel_dim == kernel_dim,
            f"kernel_dim {cp.kernel_dim}, expected {kernel_dim}")


def _check_slope(spec, exponent: float, failures: list) -> None:
    report = st.ray_scan(spec, st.ray_from_constants(spec), "constants")
    slope = report.fitted_slope
    _expect(failures, abs(slope - exponent) <= SLOPE_TOL,
            f"slope {slope:.4f}, expected {exponent} +/- {SLOPE_TOL}")


def _chebyshev_values(disc, coeffs: np.ndarray) -> np.ndarray:
    """Rows of sum_k c_k T_k(cos t) on the nodes: smooth radial functions."""
    basis = np.polynomial.chebyshev.chebvander(np.cos(disc.nodes), coeffs.shape[-1] - 1)
    return coeffs @ basis.T


def _sizes(scale: str, sizes: tuple, tiny: tuple) -> tuple:
    return {"full": sizes, "warmup": sizes[:1], "tiny": tiny}[scale]


def reproduce(rng, tmpdir: str, scale: str):
    out = os.path.join(tmpdir, "reproduce.json")
    argv = ["reproduce"]
    expected = CRITERIA
    if scale == "tiny":
        argv += ["--only", "strict_binding"]
        expected = ("strict_binding",)

    def call():
        try:
            code, report = _run_cli(argv, out)
            results = {r["name"]: r for r in (report or {"results": []})["results"]}
        except Exception as exc:  # noqa: BLE001 - every criterion of the call fails
            return [(name, [f"raised {exc!r}"]) for name in expected]
        all_passed = all(results.get(name, {}).get("passed") for name in expected)
        outcomes = []
        for name in expected:
            failures = []
            result = results.get(name)
            _expect(failures, result is not None, "missing from the report")
            if result is not None:
                _expect(failures, result["passed"], f"criterion failed: {result['detail']}")
            _expect(failures, code == (0 if all_passed else 1), f"exit code {code}")
            outcomes.append((name, failures))
        return outcomes

    return [call]


def spectra(rng, tmpdir: str, scale: str):
    dims = (3,) if scale == "tiny" else (3, 8, 16)
    sizes = _sizes(scale, (256, 512, 1024), (32,))
    out = os.path.join(tmpdir, "spectrum.json")

    def one(model, d, n):
        failures = []
        code, report = _run_cli([
            "spectrum", "--model", model, "--d", str(d), "--n", str(n), "--k", str(SPECTRUM_K),
        ], out)
        _expect(failures, code == 0, f"exit code {code}")
        if report is None:
            return failures + ["no report written"]
        got = np.array(report["eigenvalues"])
        want = exact_eigenvalues(model, d, SPECTRUM_K)
        _expect(failures, got.shape == want.shape, f"{got.size} eigenvalues")
        if got.shape == want.shape:
            err = float(np.max(np.abs(got - want) / np.maximum(want, want[1])))
            _expect(failures, err <= EIGEN_TOL[model],
                    f"relative eigenvalue error {err:.2e} > {EIGEN_TOL[model]:g}")
        return failures

    return [
        _step(f"{model}-d{d}-n{n}", one, model, d, n)
        for model in ("sphere", "product") for d in dims for n in sizes
    ]


def degenerate_fine(rng, tmpdir: str, scale: str):
    specs = DEGENERATE_SPECS[:1] if scale == "tiny" else DEGENERATE_SPECS
    sizes = _sizes(scale, (256, 512), (64,))
    control_sizes = _sizes(scale, (256, 512, 1024), (64,))
    # seeded start of the control: 1 + small smooth radial perturbation
    control_coeffs = {n: 0.1 * rng.standard_normal(6) for n in control_sizes}
    for coeffs in control_coeffs.values():
        coeffs[0] = 1.0

    def pipeline(model, d, q, n):
        failures = []
        spec = default_spec(model, d, n, q)
        cp = opt.minimize(spec, dz.DiscreteFunction(spec.disc, np.ones(n)))
        _check_critical_point(spec, cp, 1 if model == "sphere" else 2, failures)
        _check_slope(spec, DEGENERATE_EXPONENT, failures)
        estimate = st.lojasiewicz_estimate(spec, cp)
        _expect(failures, abs(estimate - DEGENERATE_EXPONENT) <= LOJASIEWICZ_TOL,
                f"Lojasiewicz estimate {estimate}, expected 4 +/- {LOJASIEWICZ_TOL}")
        return failures

    def control(n):
        failures = []
        spec = default_spec("sphere", 3, n, 4.0, a_factor=1.1)
        start = _chebyshev_values(spec.disc, control_coeffs[n])
        cp = opt.minimize(spec, dz.DiscreteFunction(spec.disc, start))
        _check_critical_point(spec, cp, 0, failures)
        _check_slope(spec, QUADRATIC_EXPONENT, failures)
        return failures

    return [
        _step(f"{spec_name(model, d, q)}-n{n}", pipeline, model, d, q, n)
        for model, d, q in specs for n in sizes
    ] + [_step(f"control-n{n}", control, n) for n in control_sizes]


def coarse_batch(rng, tmpdir: str, scale: str):
    tiny = scale == "tiny"
    n = 32 if tiny else 64
    specs = DEGENERATE_SPECS[:1] if tiny else DEGENERATE_SPECS
    factors = (1.0, 1.5) if tiny else (1.0, 1.1, 1.5)
    count = 20 if tiny else 500
    starts = [
        (model, d, q, a, int(rng.integers(2**31)))
        for model, d, q in specs for a in factors
    ]
    # sampled functions on S^3: decaying Chebyshev series plus a small offset
    coeffs = rng.standard_normal((count, 10)) * 0.5 ** np.arange(10)
    coeffs[:, 0] += 0.01 * rng.standard_normal(count)

    def multistart(model, d, q, a, seed):
        failures = []
        spec = default_spec(model, d, n, q, a_factor=a)
        cp = opt.multistart_minimize(spec, seed, extra_starts=4)
        expected_kernel = (1 if model == "sphere" else 2) if a == 1.0 else 0
        _check_critical_point(spec, cp, expected_kernel, failures)
        return failures

    def sample(spec, values):
        failures = []
        u = dz.DiscreteFunction(spec.disc, values)
        deficit = fn.deficit(spec, u)
        distance = st.distance_to_extremals(u, "bubbles_and_constants")
        _expect(failures, deficit >= DEFICIT_FLOOR, f"deficit {deficit:.3e}")
        _expect(failures, 0.0 <= distance <= 1.0, f"distance {distance}")
        return failures

    def batch(first):
        names = [f"sample-{i}" for i in range(first, min(first + SAMPLE_BATCH, count))]
        try:
            spec = default_spec("sphere", 3, n)
            values = _chebyshev_values(spec.disc, coeffs[first:first + SAMPLE_BATCH])
        except Exception as exc:  # noqa: BLE001 - every sample of the batch fails
            return [(name, [f"raised {exc!r}"]) for name in names]
        return [_attempt(name, lambda v=row: sample(spec, v)) for name, row in zip(names, values)]

    return [
        _step(f"multistart-{spec_name(model, d, q)}-A{a:g}", multistart, model, d, q, a, seed)
        for model, d, q, a, seed in starts
    ] + [lambda first=first: batch(first) for first in range(0, count, SAMPLE_BATCH)]


def make(workload: str, seed: int, tmpdir: str, scale: str = "full"):
    """One pass of `workload`, as a list of steps, with inputs drawn from `seed`.

    `scale` is "full", "warmup" (only the smallest resolution of each grid,
    so every code path runs once) or "tiny" (a few small operations, for
    the self-test).
    """
    factory = {
        "reproduce": reproduce,
        "spectra": spectra,
        "degenerate_fine": degenerate_fine,
        "coarse_batch": coarse_batch,
    }[workload]
    return factory(np.random.Generator(np.random.Philox(seed)), tmpdir, scale)
