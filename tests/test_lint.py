"""Static checks on the package source, with the standard library only.

No linter is a dependency of this project, so an import or a private helper
that a change leaves behind would go unnoticed; this module catches both.
"""

import ast
from pathlib import Path

import pytest

import lglab

SOURCES = sorted(Path(lglab.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line; ``from __future__`` is skipped."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, counting annotations, quoted ones included."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    reads |= read_names(ast.parse(sub.value, mode="eval"))
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in imported_names(tree).items() if name not in read_names(tree)}
    assert not unused, f"{path.name}: imported and never read: {unused}"


def test_the_guard_finds_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx: 'Path' = tau\nfrom pathlib import Path\n")
    assert imported_names(tree).keys() - read_names(tree) == {"os", "pi"}


def private_reads_through(tree: ast.Module, package: str) -> dict[str, int]:
    """Each dotted read ``package.a.b`` with an underscore-prefixed part, with its line."""
    found = {}
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == package and any(p.startswith("_") for p in parts):
            found[".".join([package, *reversed(parts)])] = node.lineno
    return found


def test_cli_reads_only_public_names_of_the_package():
    """The CLI is a client of the library's public surface, not of its helpers."""
    path = Path(lglab.__file__).parent / "cli.py"
    assert not private_reads_through(ast.parse(path.read_text()), "lglab")


def test_the_guard_finds_a_private_read():
    tree = ast.parse("import lglab\nq = lglab.quasiprob._quasi_pass(1)\nr = lglab.quasi(lglab._x)\n")
    assert private_reads_through(tree, "lglab") == {"lglab.quasiprob._quasi_pass": 2, "lglab._x": 3}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each underscore-prefixed, non-dunder name a module binds at its top level, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update((n, node.lineno) for n in bound if n.startswith("_") and not n.endswith("__"))
    return names


def orphaned_privates(trees: dict[str, ast.Module]) -> dict[str, int]:
    """Module-level private names that no module of ``trees`` reads, as ``module:name`` with the line.

    A read is a loaded name (an import of the name, read, included) or an attribute.
    """
    reads = set()
    for tree in trees.values():
        reads |= read_names(tree)
        reads |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {
        f"{module}:{name}": line
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in reads
    }


def test_every_private_name_is_read_somewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert orphaned_privates(trees) == {}


def test_the_guard_finds_an_orphaned_private_name():
    trees = {
        "a.py": ast.parse("__all__ = []\n_K, _orphan = 1, 2\ndef _used(): return _K\nclass _Gone: pass\n"),
        "b.py": ast.parse("from .a import _used\n_TABLE: dict = {}\nx = _used() + obj._TABLE\n"),
    }
    assert orphaned_privates(trees) == {"a.py:_orphan": 2, "a.py:_Gone": 4}
