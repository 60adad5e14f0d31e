"""Every module-level import in the package and the tests is read somewhere,
the package imports its own modules at module level only, the CLI is the
only package module that imports json or csv: it alone formats output, no
package module imports or loads scipy.optimize or scipy.special, no package
module calls eigh with subset_by_index, and the CLI wraps no ValueError in a
ConfigError."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_module_level_imports_are_read():
    files = list((ROOT / "src" / "sobolev_lab").glob("*.py"))
    files += (ROOT / "tests").glob("*.py")
    unused = {f"{p.parent.name}/{p.name}": _unused_imports(p) for p in sorted(files)}
    assert {name: names for name, names in unused.items() if names} == {}


def test_no_package_module_is_imported_inside_a_function():
    local = []
    for path in sorted((ROOT / "src" / "sobolev_lab").glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        local += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level >= 1 and id(node) not in top
        ]
    assert local == []


def test_only_the_cli_imports_json():
    importers = {"json": set(), "csv": set()}
    for path in (ROOT / "src" / "sobolev_lab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for top in {m.split(".")[0] for m in modules} & importers.keys():
                importers[top].add(path.name)
    assert importers == {"json": {"cli.py"}, "csv": {"cli.py"}}


def _importers(prefix: str) -> list:
    # every import node, function-local ones included
    importers = []
    for path in sorted((ROOT / "src" / "sobolev_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            importers += [f"{path.name}:{node.lineno}" for m in modules if m.startswith(prefix)]
    return importers


def test_no_package_module_imports_scipy_optimize():
    assert _importers("scipy.optimize") == []


def test_no_package_module_imports_scipy_special():
    # the sphere grid's polynomials come from one three-term recurrence (discretization)
    assert _importers("scipy.special") == []


def test_no_package_module_calls_a_subset_eigh():
    # the spectra come from shift-invert solves and Rayleigh-Ritz problems of a block's size;
    # a dense bottom-k eigh(subset_by_index) on the whole grid is not to come back beside them
    calls = []
    for path in sorted((ROOT / "src" / "sobolev_lab").glob("*.py")):
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  and any(kw.arg == "subset_by_index" for kw in node.keywords)]
    assert calls == []


def test_the_cli_wraps_no_value_error_in_a_config_error():
    # main maps every ValueError to exit 2, so an input a library function rejects is reported
    # by that function's own check, not by a CLI wrapper that repeats it
    wrappers = []
    for handler in ast.walk(ast.parse((ROOT / "src" / "sobolev_lab" / "cli.py").read_text())):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        if any(isinstance(t, ast.Name) and t.id == "ValueError" for t in caught):
            wrappers += [f"cli.py:{node.lineno}" for node in ast.walk(handler)
                         if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                         and getattr(node.exc.func, "id", None) == "ConfigError"]
    assert wrappers == []


COLD_PATH = """
import sys
import numpy as np
from sobolev_lab import cli, constants, optimize, stability
from sobolev_lab.discretization import DiscreteFunction, build
from sobolev_lab.geometry import make_sphere

cli.main(["spectrum", "--n", "16", "--k", "2", "--out", sys.argv[1]])
disc = build(make_sphere(3), 16)
optimize.minimize(constants.default_spec(disc, 4.0), DiscreteFunction(disc, np.ones(16)))
stability.distance_to_extremals(stability.bubble(disc, 1.0, 0.5), "bubbles_and_constants")
constants.estimate_b_opt(disc.model, disc, budget=0, n_modes=2)
cli.main(["reproduce", "--only", "b_estimator", "--out", sys.argv[1]])
assert "scipy.optimize" not in sys.modules
assert "scipy.special" not in sys.modules
"""


def test_nothing_loads_scipy_optimize(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", COLD_PATH, str(tmp_path / "s.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
