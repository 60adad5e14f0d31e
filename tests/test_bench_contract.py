"""The names benches/tracer.py traces exist in the package, and benches/probe.py runs.

The benchmark harness patches these functions by name, so a refactor that
renames or removes one breaks the traced runs; this reads the tracer
without running a benchmark.  The set-up probes call into every layer with
fixed arguments, so a changed signature would otherwise surface only as a
failed benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sobolev_lab import constants
from sobolev_lab import reproduce as rep

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
