"""Acceptance gate: every headline criterion at its stated tolerance.

The reproduction suite runs once per session, exactly as the CLI
`reproduce` command runs it; each test asserts its own criterion from that
run, so the command and this file can never drift apart.
"""

import math
import time

import numpy as np
import pytest

from sobolev_lab import functionals as fn
from sobolev_lab import reproduce as rep
from sobolev_lab.cli import format_table
from sobolev_lab.discretization import DiscreteFunction, laplace_eigenpairs


@pytest.fixture(scope="session")
def suite():
    """(results by criterion name, elapsed seconds) of one full suite run."""
    t0 = time.perf_counter()
    results = rep.run_suite()
    return {r["name"]: r for r in results}, time.perf_counter() - t0


def _run(suite, name):
    result = suite[0][name]
    assert result["passed"], f"{name}: {result['detail']}"


def test_spectral_gap_matches_dimension(suite):
    # second Laplace eigenvalue equals d on S^d for d in {3, 4, 5}, rel < 1e-8
    _run(suite, "spectral_gap")


def test_spectral_gap_constant_agrees_with_closed_form(suite):
    # (q-2)/lambda route vs closed form on the sphere, rel < 1e-10
    _run(suite, "constant_consistency")


def test_strict_binding_holds_for_d_3_to_10(suite):
    _run(suite, "strict_binding")


def test_bubbles_are_extremal_at_the_critical_spec(suite):
    # |Q(bubble) - 1| < 1e-6 for b in {0.3, 0.6, 0.9}
    _run(suite, "bubble_extremality")


def test_variation_formulas_match_finite_differences(suite):
    # 50 seeded triples per model; gradient rel < 1e-5, Hessian rel < 1e-4
    _run(suite, "variation_formulas")


def test_flat_mode_at_the_optimal_constant(suite):
    # first tangent Hessian eigenvalue < 1e-8, second > 1e-2
    _run(suite, "second_variation_cancellation")


def test_sphere_subcritical_quartic_slope(suite):
    # log-log deficit/distance slope 4.00 +/- 0.05
    _run(suite, "sphere_degenerate_slope")


def test_product_critical_quartic_slope(suite):
    _run(suite, "product_degenerate_slope")


def test_inflated_constant_quadratic_control(suite):
    # slope 2.00 +/- 0.05 and empty Hessian kernel at the minimizer
    _run(suite, "nondegenerate_control")


def test_lojasiewicz_exponent_is_four(suite):
    # reduced-functional exponent 4.0 +/- 0.1
    _run(suite, "lojasiewicz_consistency")


def test_b_estimator_lower_bounds_beta(suite):
    # estimates >= beta - 1e-10 on both models; attains beta on S^3 to 1e-6
    _run(suite, "b_estimator")


def test_random_deficits_are_nonnegative(suite):
    # 10^4 seeded functions, deficit >= -1e-8
    _run(suite, "deficit_nonnegativity")


@pytest.mark.parametrize("chunk_rows", [rep.DEFICIT_CHUNK_ROWS, 128])
def test_deficit_check_matches_the_per_sample_loop(chunk_rows, monkeypatch):
    # the chunked batch path against fn.deficit on each seeded sample in turn;
    # 128-row chunks split the 300 samples into two full chunks and a partial one
    monkeypatch.setattr(rep, "DEFICIT_CHUNK_ROWS", chunk_rows)
    spec = rep._sphere_subcritical_spec(64)
    sd = laplace_eigenpairs(spec.disc, 10)
    phis = np.column_stack([f.values for f in sd.eigenfunctions])
    rng = np.random.Generator(np.random.Philox(42))
    worst = math.inf
    for _ in range(300):
        values = phis @ (rng.standard_normal(10) * 0.5 ** np.arange(10))
        values += 0.01 * rng.standard_normal()
        worst = min(worst, fn.deficit(spec, DiscreteFunction(spec.disc, values)))
    passed, value, _ = rep.check_deficit_nonnegativity(count=300)
    assert passed
    assert value == pytest.approx(worst, rel=1e-12, abs=0.0)


def test_norms_are_squared_by_scalar_pow(monkeypatch):
    # fn.deficit and the batched check square ||u||_q as a scalar, which is C pow;
    # numpy's array ** 2 is x * x and differs from it in the last bit for some x
    x = np.random.Generator(np.random.Philox(0)).uniform(1.0, 2.0, 200_000)
    pow_sq = np.array([v**2 for v in x.tolist()])
    differs = x * x != pow_sq
    if not differs.any():
        pytest.skip("this platform's pow squares every sample exactly")
    norm = np.resize(x[differs], 300)
    num = np.resize(pow_sq[differs], 300)
    assert np.min((num - norm * norm) / (norm * norm)) < 0.0
    # with the numerator equal to the C-pow square, every deficit is exactly zero
    monkeypatch.setattr(fn, "quotient_parts", lambda spec, U, DU: (
        (num[0], norm[0]) if U.ndim == 1 else (num[: len(U)], norm[: len(U)])
    ))
    spec = rep._sphere_subcritical_spec(64)
    assert fn.deficit(spec, DiscreteFunction(spec.disc, np.ones(spec.disc.n))) == 0.0
    passed, value, _ = rep.check_deficit_nonnegativity(count=300)
    assert passed and value == 0.0


def test_a_criterion_that_raises_fails_and_the_suite_goes_on(monkeypatch):
    def broken():
        raise ArithmeticError("broken criterion")

    kept = [c for c in rep.CRITERIA if c[0] == "strict_binding"]
    monkeypatch.setattr(rep, "CRITERIA", [("broken", broken), *kept])
    results = rep.run_suite()
    assert [(r["name"], r["passed"]) for r in results] == [("broken", False),
                                                           ("strict_binding", True)]
    assert math.isnan(results[0]["value"])
    assert results[0]["detail"] == "error: ArithmeticError('broken criterion')"


def test_suite_runtime_budget(suite):
    by_name, elapsed = suite
    results = list(by_name.values())
    assert all(r["passed"] for r in results), format_table(results)
    assert elapsed < 600.0, f"reproduction suite took {elapsed:.0f}s"
