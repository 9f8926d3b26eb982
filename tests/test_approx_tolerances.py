"""Every relative ``pytest.approx`` check in tests/ also states its absolute
tolerance.  Left out, ``abs`` defaults to 1e-12, which makes a relative check
on a value near or below 1e-12 / rel pass almost anything."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def rel_without_abs(path: Path) -> list[int]:
    """Line of each ``approx`` call in the module at ``path`` (as
    ``pytest.approx`` or a bare ``approx``) that passes ``rel=`` but not
    ``abs=``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {k.arg for k in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda path: path.name)
def test_relative_approx_states_abs(path):
    assert rel_without_abs(path) == []


def test_the_scan_finds_a_relative_check_without_abs(tmp_path):
    module = tmp_path / "test_module.py"
    module.write_text(
        "import pytest\n"
        "from pytest import approx\n"
        "assert 1.0 == pytest.approx(1.0, rel=1e-9)\n"
        "assert 1.0 == pytest.approx(1.0, rel=1e-9, abs=0)\n"
        "assert 1.0 == approx(\n"
        "    1.0,\n"
        "    rel=1e-9)\n"
        "assert 1.0 == pytest.approx(1.0, abs=1e-9)\n"
        "assert 1.0 == pytest.approx(1.0)\n",
        encoding="utf-8",
    )
    assert rel_without_abs(module) == [3, 5]
