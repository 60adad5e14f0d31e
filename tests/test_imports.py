"""Every module-level import in the package and the tests is read somewhere."""

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
    files = [p for p in (ROOT / "src" / "sobolev_lab").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "tests").glob("*.py")
    unused = {f"{p.parent.name}/{p.name}": _unused_imports(p) for p in sorted(files)}
    assert {name: names for name, names in unused.items() if names} == {}
