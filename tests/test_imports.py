"""Every name a package module imports is used in that module, and every
package and test module imports only from the stdlib, the declared
dependencies (numpy, yaml, pytest), atsplit itself or sibling test modules.

A stdlib-``ast`` check, so it needs no linter: an import left behind when
its last use goes (a helper moved to another module, say) fails here.
``__init__.py`` re-exports by design and is skipped; an import kept for
another reason sits on a line marked ``# noqa: F401``.  The allowlist keeps
undeclared packages out; in particular no test compares against scipy,
which is not a dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "atsplit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
ALLOWED = (
    set(sys.stdlib_module_names) | {"numpy", "yaml", "pytest", "atsplit"} | {p.stem for p in TESTS}
)


def unused_imports(source: str) -> list[str]:
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


def foreign_imports(source: str) -> list[str]:
    """Top-level names imported from outside ``ALLOWED``; relative imports pass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{n} (line {node.lineno})" for n in names if n.split(".")[0] not in ALLOWED]
    return found


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_imports_only_declared_dependencies(path):
    assert foreign_imports(path.read_text()) == []


def test_check_sees_a_foreign_import():
    source = (
        "import os, numpy.linalg\nimport scipy.linalg as sl\nfrom .model import ket_bra\n"
        "from conftest import OMEGA_P\nfrom scipy import linalg\n"
    )
    assert foreign_imports(source) == ["scipy.linalg (line 2)", "scipy (line 5)"]
