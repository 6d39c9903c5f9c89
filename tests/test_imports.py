"""Every import in the package is used: a stdlib-only unused-import check."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skeinrep"


def unused_imports(source: str):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_checker_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import os\nimport a.b\nfrom x import y, z as w\nprint(y)\n")
    assert unused_imports(src) == [(2, "os"), (3, "a"), (4, "w")]


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
