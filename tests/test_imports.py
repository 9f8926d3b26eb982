"""Every module under src/oslc uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oslc"


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name the module at ``path`` imports and never
    reads, skipping ``from __future__`` and imports marked ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
            "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
        ):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is re-exported, so it counts as used
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math, os\n"
        "from fractions import Fraction\n"
        "from .lattices import XI  # noqa: F401\n"
        "from . import codes\n"
        "__all__ = ['codes']\n"
        "print(os.sep)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(2, "math"), (3, "Fraction")]
