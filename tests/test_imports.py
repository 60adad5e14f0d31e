"""Every module-level import in the package and the tests is read somewhere,
the package imports its own modules at module level only, and the CLI is the
only package module that imports json or csv: it alone formats output."""

import ast
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
