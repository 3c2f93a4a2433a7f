"""Every import in the package and its tests is used, and so is every
module-level function, class and assigned name of the package (dunders
excepted). Package `__init__.py` files are exempt from the import rule: their
imports are the public re-exports. No package module imports a `_`-prefixed
name from another: a rule that modules share is public under its own name."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "panrec").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str):
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def private_imports(source: str):
    """(line, name) of each `_`-prefixed name imported from a module of the package."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "panrec")
            for alias in node.names if alias.name.startswith("_")]


def names_read(source: str):
    """Every name that the module's expressions read or its imports import. An
    assignment target is not a read."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def is_click_command(node):
    """Decorated `@<group>.command(...)`: the CLI reaches it through its group."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def defined_names(node):
    """(line, name) of what a module-level statement defines: a function or class
    that is not a CLI command, or each name an assignment binds, dunders excepted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [] if is_click_command(node) else [(node.lineno, node.name)]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [(t.lineno, t.id) for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
            and not (t.id.startswith("__") and t.id.endswith("__"))]


def leftover_definitions(source: str, names):
    """Module-level functions, classes and assigned names of the module that `names` lacks."""
    return [(line, name) for node in ast.parse(source).body
            for line, name in defined_names(node) if name not in names]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detection():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import a.b\nfrom x import y, z as w\nprint(np.pi, a.b, w)\n")
    assert unused_imports(source) == [(2, "os"), (5, "y")]


def test_no_private_imports_between_package_modules():
    found = [(p.relative_to(ROOT).as_posix(), *imported) for p in PACKAGE
             for imported in private_imports(p.read_text())]
    assert found == []


def test_private_import_detection():
    source = ("from .priors import _checked, checked\nfrom panrec.volume import _VOID\n"
              "from ._core import within\nfrom numpy import _NoValue\nimport panrec._x\n")
    assert private_imports(source) == [(1, "_checked"), (2, "_VOID")]


def test_no_leftover_definitions():
    names = set().union(*(names_read(p.read_text()) for p in READERS))
    leftovers = [(p.relative_to(ROOT).as_posix(), *found) for p in PACKAGE
                 for found in leftover_definitions(p.read_text(), names)]
    assert leftovers == []


def test_leftover_definition_detection():
    source = ("import click\n@click.group()\ndef main(): pass\n@main.command('run')\n"
              "def run_cmd(): pass\ndef used(): pass\ndef unused(): used()\n"
              "class Read: pass\nclass Unread: pass\n")
    names = names_read(source) | names_read("import m\nm.Read")
    assert leftover_definitions(source, names) == [(7, "unused"), (9, "Unread")]


def test_leftover_assignment_detection():
    source = ("_CHUNK = 4096\nUSED = 1\n__version__ = '0.1.0'\nA, (B, C) = 1, (2, 3)\n"
              "LIMIT: int = 8\nTABLE = {}\nTABLE['k'] = USED\nprint(B)\n")
    # a store into another module's attribute is not a read of it
    names = names_read(source) | names_read("import m\nm._CHUNK = 5\nm.LIMIT")
    assert leftover_definitions(source, names) == [(1, "_CHUNK"), (4, "A"), (4, "C")]
