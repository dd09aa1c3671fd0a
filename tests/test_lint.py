"""Static checks on the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slopelab"


def exported(tree: ast.Module) -> set[str]:
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants that no module reads.

    A name counts as read when any of the sources loads it, reads it as an
    attribute, imports it by name, or lists it in its own module's ``__all__``.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        public = exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead.extend(
                f"{module}.{name}" for name in names
                if name != "__all__" and name not in read and name not in public
            )
    return dead


def package_imports(source: str, package: str) -> list[str]:
    """Every import of ``package`` in a module, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend(
            f"line {node.lineno}: {name}" for name in names
            if name == package or name.startswith(package + ".")
        )
    return found


def test_the_check_sees_unused_and_exported_names():
    source = "import os\nimport sys as system\nfrom math import pi, tau\n"
    source += "__all__ = ['tau']\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "system (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_dead_definitions():
    sources = {
        "a": "__all__ = ['api']\nLIMIT = 3\nSPARE = 4\ndef api(): return helper()\n"
        "def helper(): return LIMIT\ndef orphan(): pass\nclass Ghost: pass\n",
        "b": "from .a import orphan\nimport a\nprint(a.SPARE)\n",
    }
    assert dead_definitions(sources) == ["a.Ghost"]
    del sources["b"]
    assert dead_definitions(sources) == ["a.SPARE", "a.orphan", "a.Ghost"]


def test_no_dead_definitions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_definitions(sources) == []


def test_the_check_sees_package_imports():
    source = (
        "import scipy\nfrom scipy.special import gammaln\nimport scipyx\n"
        "try:\n    import scipy.optimize as so\nexcept ImportError:\n    pass\n"
        "class C:\n    from scipy import integrate\n"
        "def f():\n    from scipy.integrate import quad\n    return quad\n"
    )
    assert set(package_imports(source, "scipy")) == {
        "line 1: scipy", "line 2: scipy.special", "line 5: scipy.optimize", "line 9: scipy",
        "line 11: scipy.integrate",
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_scipy_is_imported_only_where_it_is_called(path):
    # slopelab calls no scipy, so no module imports it, not even inside a function
    assert package_imports(path.read_text(encoding="utf-8"), "scipy") == [], path.name


def private_imports(source: str) -> list[str]:
    """Underscored names a module imports from another slopelab module.

    Relative imports and imports from ``slopelab`` count; dunder names such
    as ``__version__`` do not.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "slopelab":
            continue
        found.extend(
            f"line {node.lineno}: from {module} import {alias.name}" for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        )
    return found


def test_the_check_sees_private_imports():
    source = (
        "from .quadrature import _weight_vec, near_diagonal\n"
        "from slopelab.catalog import _PEAK as PEAK\n"
        "from . import __version__, _helpers\n"
        "from os import _exit\n"
        "def f():\n    from .profiles import _spare\n    return _spare\n"
    )
    assert private_imports(source) == [
        "line 1: from .quadrature import _weight_vec",
        "line 2: from slopelab.catalog import _PEAK",
        "line 3: from . import _helpers",
        "line 6: from .profiles import _spare",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    # a name another module needs is part of its module's interface
    assert private_imports(path.read_text(encoding="utf-8")) == [], path.name


def global_statements(source: str) -> list[str]:
    """Every ``global`` statement in a module, function bodies included."""
    return [
        f"line {node.lineno}: global {', '.join(node.names)}"
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)
    ]


def test_the_check_sees_global_statements():
    source = (
        "SLOPE = 1\nglobal TOP\n"
        "def f():\n    global SLOPE, TOP\n    SLOPE = 2\n"
        "def g():\n    x = 0\n    def h():\n        nonlocal x\n        x = 1\n    return h\n"
    )
    assert global_statements(source) == ["line 2: global TOP", "line 4: global SLOPE, TOP"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_global_statements(path):
    # state a query passes down (an edge, a slope, a budget) travels as
    # arguments, so that queries stay reentrant
    assert global_statements(path.read_text(encoding="utf-8")) == [], path.name
