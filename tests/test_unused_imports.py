"""Every import in the package and its tests is used. Package `__init__.py`
files are exempt: their imports are the public re-exports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "panrec").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detection():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import a.b\nfrom x import y, z as w\nprint(np.pi, a.b, w)\n")
    assert unused_imports(source) == [(2, "os"), (5, "y")]
