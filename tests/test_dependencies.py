"""The package's only runtime dependency outside the standard library is numpy."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "clipedit"}
SOURCES = sorted((ROOT / "src" / "clipedit").glob("*.py"))


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for each absolute import in `path`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module))
    return out


def test_sources_found():
    assert any(path.name == "encoder.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_or_clipedit(path):
    bad = [
        f"{path.name}:{line}: {module}" for line, module in absolute_imports(path)
        if module.partition(".")[0] not in sys.stdlib_module_names | ALLOWED
    ]
    assert not bad, bad


def test_pyproject_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
