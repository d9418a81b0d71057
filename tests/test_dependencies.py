"""Runtime dependencies: the package imports only the standard library, numpy and PyYAML."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dasqa"
THIRD_PARTY = {"numpy", "yaml"}


def _absolute_imports(source: str) -> set[str]:
    """Top-level names of a module's absolute imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_numpy_and_yaml():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    allowed = set(sys.stdlib_module_names) | THIRD_PARTY
    foreign = {}
    for path in sources:
        names = _absolute_imports(path.read_text(encoding="utf-8")) - allowed
        if names:
            foreign[str(path.relative_to(PACKAGE))] = sorted(names)
    assert foreign == {}


def test_the_guard_sees_nested_and_dotted_imports():
    source = "import os.path\nfrom .x import y\ndef f():\n    from scipy.linalg import solve\n"
    assert _absolute_imports(source) == {"os", "scipy"}
