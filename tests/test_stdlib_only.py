"""The package runs on the standard library alone: no module imports a
third-party package, and the project declares no runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(path: Path) -> set[str]:
    """The top-level names of every absolute import in a source file,
    including imports inside functions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "tensorcut").glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"tensorcut"}
    outside = {path.name: sorted(_imported_modules(path) - allowed) for path in sources}
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_project_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
