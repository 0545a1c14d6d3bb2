"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "domdist").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def _relative_import_targets(path: Path) -> set[str]:
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules = [node.module] if node.module else [a.name for a in node.names]
            targets.update(f"{m}.py" for m in modules)
    return targets


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert "__init__.py" in names
    missing = set().union(*map(_relative_import_targets, SOURCES)) - names
    assert missing == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_stdlib_imports(path):
    outside = [
        name for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
