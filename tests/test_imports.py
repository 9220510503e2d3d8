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
import os
import subprocess
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


#: Module-level names the interpreter calls (PEP 562), never the program.
INTERPRETER_HOOKS = {"__getattr__", "__dir__"}


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and assigned names of the modules in
    ``sources`` (module name -> text) that no module loads, reads as an
    attribute or imports by name, other than ``INTERPRETER_HOOKS``.
    ``__init__`` defines nothing here; its re-exports, imported inside a
    function, count as references.  The match is by name, so a definition
    that shares its name with a local elsewhere can pass unnoticed."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}.{name}" for name in names
                     if name not in referenced | INTERPRETER_HOOKS]
    return dead


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def test_every_definition_is_used_or_exported():
    assert dead_definitions(package_sources()) == []


def test_check_sees_a_dead_definition():
    sources = {
        "a": "def used(): pass\ndef dead(): pass\nclass Gone: pass\nX = 1\n_Y, Z = used(), 2\n"
             "def __getattr__(name): pass\ndef __dir__(): pass\ndef _hook(name): pass\n",
        "b": "from .a import Z\nprint(Z.used)\n",
        "__init__": "def _load():\n    from .a import X\n",
    }
    assert dead_definitions(sources) == ["a.dead", "a.Gone", "a._Y", "a._hook"]


@pytest.mark.parametrize(
    "module, name", [("model", "hamiltonian_stack"), ("cli", "_singlet_summary")]
)
def test_check_sees_a_helper_left_behind_by_a_fold(module, name):
    sources = package_sources()
    sources[module] += f"\n\ndef {name}(*args):\n    return args\n"
    assert dead_definitions(sources) == [f"{module}.{name}"]


#: Modules on the path of ``atsplit validate``, which must not load numpy.
NUMPY_FREE = ["config.py", "model.py", "errors.py", "cli.py"]


def module_level_numpy(source: str) -> list[str]:
    """Imports of numpy that run when the module is imported: any outside a
    function body (a class body or an ``if`` block runs at import too)."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if not in_function:
                found.extend(f"{n} (line {child.lineno})" for n in names
                             if n.split(".")[0] == "numpy")
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_module_imports_no_numpy_at_module_level(name):
    assert module_level_numpy((PACKAGE / name).read_text()) == []


def test_check_sees_a_module_level_numpy_import():
    source = (
        "import numpy as np\nif True:\n    from numpy.linalg import inv\n"
        "class Grid1D:\n    @property\n    def points(self):\n"
        "        import numpy as np\n        return np.zeros(2)\n"
    )
    assert module_level_numpy(source) == ["numpy (line 1)", "numpy.linalg (line 3)"]


def _python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports this atsplit."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout


def test_validate_loads_no_numpy():
    """``python -m atsplit.cli validate paper.cfg`` returns with no numpy in
    ``sys.modules``: the config layer is pure Python, and ``cli`` imports
    the numerics only when ``run`` solves."""
    code = (
        "import runpy, sys\nsys.argv = ['atsplit', 'validate', 'paper.cfg']\n"
        "try:\n    runpy.run_module('atsplit.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n    print('exit', exc.code)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    assert _python(code).splitlines()[-3:] == ["config ok", "exit 0", "[]"]


def test_cli_import_loads_no_process_pool():
    """Steady-state sweeps map their spans in threads, so importing the
    CLI, which every ``atsplit`` command does, loads no multiprocessing
    module."""
    code = (
        "import sys, atsplit.cli; print(sorted(m for m in sys.modules "
        "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))"
    )
    assert _python(code) == "[]\n"
