"""Every private module-level name of the package is used somewhere in it."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "domdist").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The private names a module's top-level functions, classes and
    assignments bind, each with the statement that binds it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        found += [(name, node) for name in targets if _private(name)]
    return found


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names tree reads, as a name or an attribute, outside the subtree
    skip; docstrings and comments hold no reference."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_orphaned_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert "distance.py" in trees and "bounds.py" in trees
    orphans = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_references(t) for m, t in trees.items() if m != module))
        for name, node in _definitions(tree):
            if name not in elsewhere and name not in _references(tree, skip=node):
                orphans.append(f"{module}:{node.lineno} {name}")
    assert orphans == []


def test_finds_an_orphan():
    tree = ast.parse('_used = 1\n_left = 2\n"""_left"""\n\ndef _f():\n    return _f() + _used\n')
    defined = {name for name, _ in _definitions(tree)}
    assert defined == {"_used", "_left", "_f"}
    assert {name for name, node in _definitions(tree)
            if name not in _references(tree, skip=node)} == {"_left", "_f"}
