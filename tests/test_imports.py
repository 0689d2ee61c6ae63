"""No module of the package, the demos or the tests imports a name it never
uses.  An import whose statement carries ``# noqa`` is exempt.  Every
public function of the package, and every public method and property of
its classes, is read somewhere in the package, so none is kept for the
tests or the demos alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/qheis", "demos", "tests") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src/qheis").rglob("*.py"))


def unused_imports(text: str) -> list[str]:
    """'<line>: <name>' for each name the source imports and never reads."""
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}  # name an import binds -> line of the statement
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_every_import_is_used():
    assert FILES
    unused = [f"{path.relative_to(ROOT)}:{entry}" for path in FILES
              for entry in unused_imports(path.read_text())]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "import sys  # noqa: F401\nfrom math import (pi,\n    tau)\n"
              "import os.path as osp\nprint(pi, osp)\n")
    assert unused_imports(source) == ["2: os", "4: tau"]


def public_definitions(tree: ast.Module):
    """(name, line) of each public module-level function, and of each
    public method and property of a module-level class."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield member.name, member.lineno


def test_every_public_function_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    orphans = [f"{path.relative_to(ROOT)}:{line}: {name}" for path, tree in trees.items()
               for name, line in public_definitions(tree) if name not in read]
    assert PACKAGE
    assert not orphans, ("public functions, methods and properties no module of the "
                         "package reads:\n" + "\n".join(orphans))


def test_the_caller_check_sees_class_members():
    source = ("class A:\n    x: int\n    def used(self): pass\n"
              "    @property\n    def p(self): pass\n    def _private(self): pass\n"
              "def f(): pass\n")
    assert list(public_definitions(ast.parse(source))) == [("used", 3), ("p", 5), ("f", 7)]


def scipy_sparse_imports(tree: ast.Module) -> list[int]:
    """The line of each statement that imports scipy.sparse or a module or
    name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
            found.append(node.lineno)
    return found


def test_no_module_of_the_package_imports_scipy_sparse():
    # the package's operators are ladder tables and sector block operators;
    # CSR arrays live in tests/sparse_route.py, the oracle of the tests
    found = [f"{path.relative_to(ROOT)}:{line}" for path in PACKAGE
             for line in scipy_sparse_imports(ast.parse(path.read_text()))]
    assert PACKAGE
    assert not found, "scipy.sparse imported in the package:\n" + "\n".join(found)


def test_the_sparse_import_check_sees_every_form():
    source = ("from scipy import sparse\nimport scipy.sparse\nimport scipy.sparse as sp\n"
              "from scipy.sparse import csr_array\nfrom scipy.sparse.linalg import svds\n"
              "from scipy import special\nimport scipy.linalg\nfrom scipy.special import gamma\n")
    assert scipy_sparse_imports(ast.parse(source)) == [1, 2, 3, 4, 5]
