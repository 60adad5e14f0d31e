"""The names benches/tracer.py traces exist in the package, and benches/probe.py runs.

The benchmark harness patches these functions by name, so a refactor that
renames or removes one breaks the traced runs; this reads the tracer
without running a benchmark.  The set-up probes call into every layer with
fixed arguments, and the result counters read fields of the layers' return
values, so a changed signature or a renamed field would otherwise surface
only as a failed benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sobolev_lab import constants
from sobolev_lab import optimize as opt
from sobolev_lab import reproduce as rep
from sobolev_lab.discretization import DiscreteFunction, build
from sobolev_lab.geometry import make_sphere

BENCHES = Path(__file__).resolve().parents[1] / "benches"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_callables_of_the_package():
    missing = []
    for layer, (short, names) in _load("tracer").LAYERS.items():
        module = importlib.import_module(f"sobolev_lab.{short}")
        missing += [f"{layer}: {short}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []


def test_counted_b_objective_exists():
    assert callable(constants._b_objective)


def test_traced_criteria_are_the_reproduce_criteria():
    assert list(_load("tracer").CRITERIA) == [name for name, _ in rep.CRITERIA]


@pytest.mark.parametrize("workload", ["reproduce", "spectra", "degenerate_fine", "coarse_batch"])
def test_set_up_probes_run(workload):
    _load("probe").main(workload)


@pytest.mark.parametrize("failing", [False, True], ids=["converged", "unconverged"])
def test_result_counters_apply_to_real_return_values(monkeypatch, failing):
    """Each RESULT_COUNTERS increment reads a value its layer really returns, at n = 16."""
    tracer = _load("tracer")
    if failing:  # no descent row and no reduced-functional row converges: each failure counts 1
        monkeypatch.setattr(opt, "GRAD_TOL", 0.0)
        monkeypatch.setattr(opt, "NEWTON_MAX", 0)
    spec = constants.default_spec(build(make_sphere(3), 16), 4.0)
    start = DiscreteFunction(spec.disc, 1.0 + 0.1 * np.cos(spec.disc.nodes))
    cp = opt.minimize(spec, start)
    args = {"optimize.minimize": (spec, start), "optimize.reduced_functional": (spec, cp, [0.05]),
            "stability.lojasiewicz_estimate": (spec, cp)}
    counts = {}
    for name, (layer, increment) in tracer.RESULT_COUNTERS.items():
        short, (fname,) = tracer.LAYERS[layer]
        counts[name] = increment(getattr(importlib.import_module(f"sobolev_lab.{short}"), fname)(
            *args[layer]))
    assert all(type(count) is int for count in counts.values())
    assert counts == {"optimize.minimize.iterations": cp.iterations,
                      "optimize.minimize.unconverged": int(failing),
                      "optimize.reduced_functional.unconverged": int(failing),
                      "stability.lojasiewicz_estimate.nan": int(failing)}
    assert cp.iterations > 0
