"""Static checks on the package source, with the standard library only.

No linter is a dependency of this project, so an import, a private helper or
a public method that a change leaves behind would go unnoticed; this module
catches all three.
"""

import ast
from pathlib import Path

import pytest

import lglab

SOURCES = sorted(Path(lglab.__file__).parent.glob("*.py"))
# every file that may read the package's API: the package, its tests and the benchmark
ROOT = Path(__file__).resolve().parents[1]
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


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


def public_methods(tree: ast.Module) -> dict[str, int]:
    """Each public method or property of a class the module defines at its top
    level, as ``Class.name`` with its line."""
    return {
        f"{cls.name}.{node.name}": node.lineno
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }


def unread_public_methods(trees: dict[str, ast.Module], readers: list[ast.Module]) -> dict[str, int]:
    """Public methods and properties of ``trees`` whose name no reader reads,
    as ``module:Class.name`` with the line.

    A read is a loaded attribute or a string constant that is exactly the
    name, as ``getattr`` takes it.
    """
    reads = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    return {
        f"{module}:{name}": line
        for module, tree in trees.items()
        for name, line in public_methods(tree).items()
        if name.rpartition(".")[2] not in reads
    }


def test_every_public_method_is_read_somewhere():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    readers = [ast.parse(path.read_text(), filename=str(path)) for path in READERS]
    assert unread_public_methods(trees, readers) == {}


def test_the_guard_finds_an_unread_public_method():
    tree = ast.parse(
        "class A:\n"
        "    def called(self): pass\n"
        "    @property\n"
        "    def named(self): pass\n"
        "    def gone(self): pass\n"
        "    def _private(self): pass\n"
        "    def __repr__(self): pass\n"
        "def gone(): pass\n"
    )
    reader = ast.parse("a.called()\nx = getattr(a, 'named')\na.gone = 1\nprint('a.gone() is unused')\n")
    assert unread_public_methods({"a.py": tree}, [tree, reader]) == {"a.py:A.gone": 5}


def readers_of(tree: ast.Module, name: str) -> set[str]:
    """The top-level functions and classes of the module that read ``name``,
    and ``<module>`` for a read by any other top-level statement.

    A read is a loaded name, an attribute, an import of the name or a string
    constant that is exactly the name, as ``getattr`` takes it.
    """
    found = set()
    for stmt in tree.body:
        defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                read = any(alias.name.rpartition(".")[2] == name for alias in node.names)
            elif isinstance(node, ast.Name):
                read = isinstance(node.ctx, ast.Load) and node.id == name
            elif isinstance(node, ast.Attribute):
                read = node.attr == name
            else:
                read = isinstance(node, ast.Constant) and node.value == name
            if read:
                found.add(stmt.name if defines else "<module>")
    return found


def test_only_the_one_violation_predicate_reads_the_violation_tolerance():
    """Every K, 4q and weak-value verdict calls ``qcore._violates``; no other
    code under the package compares against ``VIOLATION_TOL``."""
    readers = {
        f"{path.stem}.{where}"
        for path in SOURCES
        for where in readers_of(ast.parse(path.read_text()), "VIOLATION_TOL")
    }
    assert readers == {"qcore._violates"}


def test_the_guard_finds_a_read_of_the_violation_tolerance():
    tree = ast.parse(
        "from .qcore import VIOLATION_TOL as TOL\n"
        "from . import qcore\n"
        "def f(k):\n    return k < -qcore.VIOLATION_TOL\n"
        "class A:\n    def g(self):\n        return getattr(qcore, 'VIOLATION_TOL')\n"
        "def h():\n    'VIOLATION_TOL, in prose'\n    VIOLATION_TOL = 1e-12\n"
        "LIMIT = 2 * VIOLATION_TOL\n"
    )
    assert readers_of(tree, "VIOLATION_TOL") == {"<module>", "f", "A"}
    assert readers_of(ast.parse("from .qcore import VIOLATION_TOL\n"), "VIOLATION_TOL") == {"<module>"}
    assert readers_of(ast.parse("def h():\n    VIOLATION_TOL = 1e-12\n"), "VIOLATION_TOL") == set()


# what each numpy importer needs it for: qcore, only ``amps``, ``entries``,
# the 2x2 parse and a state input that is not two plain numbers (the state
# norm is ``math.hypot``); weakval, the inner products' BLAS dots, the row norm
# among them, whose bits fig2.csv and the pinned weak values hold;
# experiment, the Philox draws. Each imports
# it inside those routes, not at load, so mr-check and probabilities run
# without it (tests/test_package.py::TestStartup); the guard finds an import
# at any depth, so this set still names every module that can load numpy
NUMPY_IMPORTERS = {"qcore.py", "weakval.py", "experiment.py"}


def imports_numpy(tree: ast.Module) -> bool:
    """Whether the module imports numpy or a submodule of it anywhere, at any
    depth: ``import``, ``from ... import``, or ``__import__`` or
    ``importlib.import_module`` called with the name as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            names = [node.args[0].value] if called in ("__import__", "import_module") else []
        else:
            continue
        if any(isinstance(n, str) and n.partition(".")[0] == "numpy" for n in names):
            return True
    return False


def test_numpy_is_imported_only_where_a_pinned_bit_a_draw_or_a_parse_needs_it():
    importers = {path.name for path in SOURCES if imports_numpy(ast.parse(path.read_text()))}
    assert importers == NUMPY_IMPORTERS


@pytest.mark.parametrize(
    "source",
    [
        "import numpy",
        "import numpy as np",
        "import os, numpy.linalg",
        "from numpy import asarray",
        "from numpy.random import Philox as P",
        "def f():\n    import numpy as np\n    return np",
        "class A:\n    def f(self):\n        from numpy import vdot",
        "np = __import__('numpy')",
        "import importlib\nnp = importlib.import_module('numpy.linalg')",
    ],
)
def test_the_guard_finds_a_numpy_import(source):
    assert imports_numpy(ast.parse(source))


def test_the_guard_passes_a_module_without_numpy():
    source = "import math\nfrom .qcore import _flat_2x2\nimport numpyish\n'import numpy'\nimport_module(name)\n"
    assert not imports_numpy(ast.parse(source))


def dataclass_uses(tree: ast.Module) -> tuple[bool, set[str]]:
    """Whether the module imports ``dataclasses`` (at any depth, as ``import``
    or ``from ... import``), and the classes it decorates with anything named
    ``dataclass``, called or not, bare or as an attribute."""
    imports, decorated = False, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports |= any(alias.name.partition(".")[0] == "dataclasses" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imports |= node.level == 0 and node.module == "dataclasses"
        elif isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name == "dataclass":
                    decorated.add(node.name)
    return imports, decorated


def test_only_sample_estimate_is_a_dataclass():
    """Records are ``qcore._Record`` slots classes, so loading the layers
    generates no code. ``SampleEstimate`` stays a dataclass because
    ``bench/test_bench.py`` calls ``dataclasses.replace`` on one."""
    uses = {path.stem: dataclass_uses(ast.parse(path.read_text())) for path in SOURCES}
    assert {stem for stem, (imports, _) in uses.items() if imports} == {"experiment"}
    assert {(stem, cls) for stem, (_, classes) in uses.items() for cls in classes} == {
        ("experiment", "SampleEstimate")}


def test_the_guard_finds_a_dataclass():
    source = (
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int\n"
        "def f():\n    from dataclasses import dataclass\n"
        "    @dataclass\n    class B:\n        y: int\n    return B\n"
        "@functools.cache\nclass C:\n    pass\n"
    )
    assert dataclass_uses(ast.parse(source)) == (True, {"A", "B"})
    assert dataclass_uses(ast.parse("from .qcore import dataclass_like\n'import dataclasses'\n")) == (False, set())
    assert dataclass_uses(ast.parse("from dataclasses import replace\n"))[0]
