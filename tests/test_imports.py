"""Every name a package module imports is used in that module.

No linter ships with the package's toolchain, so this stands in for the
unused-import check: each src/scmfpga/*.py but __init__.py (which imports to
re-export) is parsed with ast, and an imported name that no expression of the
module reads fails the test.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scmfpga"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport json\nimport numpy as np\n"
              "from .bits import BitVec, WORD\n"
              "def f(x: BitVec) -> int:\n    return np.sum(x)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: WORD"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
