"""Per-layer spans around the public functions of sobolev_lab.

A `Tracer` replaces each traced function, in every loaded ``sobolev_lab``
module that holds a reference to it, by a wrapper that counts its calls and
adds up its self time: the span's duration minus the time of traced calls
made inside it.  Replacing every reference matters because ``functionals``
and ``stability`` import ``inner``, ``lp_norm`` and ``gradient_norm_sq`` by
name, and ``reproduce.CRITERIA`` holds the criterion functions in a list.
Leaving the ``with`` block puts every original back.

Spans are aggregated per layer as they close, so memory stays flat however
many calls a pass makes.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# layer name -> (module under sobolev_lab, traced functions)
LAYERS = {
    "constants.estimate_b_opt": ("constants", ("estimate_b_opt",)),
    "constants.spectral_gap": ("constants", ("spectral_gap",)),
    "discretization.build": ("discretization", ("build",)),
    "discretization.laplace_eigenpairs": ("discretization", ("laplace_eigenpairs",)),
    "discretization.quadrature": ("discretization", ("inner", "lp_norm", "gradient_norm_sq")),
    "functionals.value": ("functionals", ("quotient", "deficit")),
    "functionals.gradient": ("functionals", ("gradient", "normalize", "project_tangent")),
    "functionals.hessian": ("functionals", ("hessian_matrix", "hessian_form", "tangent_frame")),
    "optimize.minimize": ("optimize", ("minimize",)),
    "optimize.multistart_minimize": ("optimize", ("multistart_minimize",)),
    "optimize.hessian_spectrum_at": ("optimize", ("hessian_spectrum_at",)),
    "optimize.kernel_basis_at": ("optimize", ("kernel_basis_at",)),
    "optimize.reduced_functional": ("optimize", ("reduced_functional",)),
    "optimize.certify": ("optimize", ("certify",)),
    "stability.ray_scan": ("stability", ("ray_scan",)),
    "stability.distance_to_extremals": ("stability", ("distance_to_extremals",)),
    "stability.lojasiewicz_estimate": ("stability", ("lojasiewicz_estimate",)),
    "cli.main": ("cli", ("main",)),
}

# The twelve acceptance criteria of `sobolev-lab reproduce`, each traced as
# layer reproduce.<name>; workloads.py checks that all of them pass.
CRITERIA = (
    "spectral_gap",
    "constant_consistency",
    "strict_binding",
    "bubble_extremality",
    "variation_formulas",
    "second_variation_cancellation",
    "sphere_degenerate_slope",
    "product_degenerate_slope",
    "nondegenerate_control",
    "lojasiewicz_consistency",
    "b_estimator",
    "deficit_nonnegativity",
)

# counter name -> (layer, function of the layer's return value giving the increment)
RESULT_COUNTERS = {
    "optimize.minimize.iterations": ("optimize.minimize", lambda cp: cp.iterations),
    "optimize.minimize.unconverged": ("optimize.minimize", lambda cp: int(not cp.converged)),
    "optimize.reduced_functional.unconverged": (
        "optimize.reduced_functional",
        lambda sample: int(not sample.inner_converged),
    ),
    "stability.lojasiewicz_estimate.nan": (
        "stability.lojasiewicz_estimate",
        lambda value: int(math.isnan(value)),
    ),
}

# Nelder-Mead objective of the B_opt search: counted, not timed.
OBJECTIVE_EVALS = "constants.estimate_b_opt.objective_evals"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units[OBJECTIVE_EVALS] = "count"
    for name in RESULT_COUNTERS:
        units[name] = "count"
    for name in CRITERIA:
        units[f"reproduce.{name}.self_s"] = "s"
    return units


class Tracer:
    """Context manager that traces every layer while it is active."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {name: 0 for name in RESULT_COUNTERS}
        self.counts[OBJECTIVE_EVALS] = 0
        self._child_time = []  # one accumulator per open span
        self._undo = []

    def _span(self, layer, func, counters=()):
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        stack = self._child_time

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += duration - children
                if stack:
                    stack[-1] += duration
            for name, increment in counters:
                self.counts[name] += increment(result)
            return result

        return wrapper

    def _count(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _replace(self, modules, original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def __enter__(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "sobolev_lab" or name.startswith("sobolev_lab.")
        ]

        def module(short):
            return sys.modules[f"sobolev_lab.{short}"]

        for layer, (short, names) in LAYERS.items():
            counters = [
                (name, increment)
                for name, (owner, increment) in RESULT_COUNTERS.items()
                if owner == layer
            ]
            for fname in names:
                original = getattr(module(short), fname)
                self._replace(modules, original, self._span(layer, original, counters))
        constants = module("constants")
        self._replace(
            modules, constants._b_objective, self._count(OBJECTIVE_EVALS, constants._b_objective)
        )
        reproduce = module("reproduce")
        self._undo.append((reproduce, "CRITERIA", reproduce.CRITERIA))
        reproduce.CRITERIA = [
            (name, self._span(f"reproduce.{name}", check)) for name, check in reproduce.CRITERIA
        ]
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False

    def metrics(self) -> dict:
        """Per-layer values in the order of `metric_units`; absent layers read 0."""
        values = {}
        for name in metric_units():
            layer, kind = name.rsplit(".", 1)
            if name in self.counts:
                values[name] = self.counts[name]
            elif kind == "calls":
                values[name] = self.calls.get(layer, 0)
            else:
                values[name] = self.self_s.get(layer, 0.0)
        return values

    def top_layers(self, wall_s: float, k: int = 3) -> list:
        """The k layers with the largest self time, as (layer, share of wall_s)."""
        ranked = sorted(self.self_s.items(), key=lambda item: item[1], reverse=True)
        return [(layer, seconds / wall_s) for layer, seconds in ranked[:k]]
