"""The names benches/tracer.py traces exist in the package.

The benchmark harness patches these functions by name, so a refactor that
renames or removes one breaks the traced runs; this reads the tracer
without running a benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

from sobolev_lab import constants
from sobolev_lab import reproduce as rep

TRACER = Path(__file__).resolve().parents[1] / "benches" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_callables_of_the_package():
    missing = []
    for layer, (short, names) in _tracer().LAYERS.items():
        module = importlib.import_module(f"sobolev_lab.{short}")
        missing += [f"{layer}: {short}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []


def test_counted_b_objective_exists():
    assert callable(constants._b_objective)


def test_traced_criteria_are_the_reproduce_criteria():
    assert list(_tracer().CRITERIA) == [name for name, _ in rep.CRITERIA]
