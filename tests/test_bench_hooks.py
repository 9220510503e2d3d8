"""The benchmark tracer (``bench/trace_cli.py``) wraps program functions by
module and attribute name, and the micro-benchmarks (``bench/micro.py``)
import from the package.  Renaming or deleting one of them must fail here
rather than silently break ``bench/run.py --trace 1``."""

import ast

import pytest

import atsplit

from conftest import ROOT, load_module

BENCH = ROOT / "bench"
_trace_cli = load_module(BENCH / "trace_cli.py")
_HOOKS = [(namespace, attr) for namespace, attr, _ in _trace_cli.SPANNED + _trace_cli.COUNTED]


@pytest.mark.parametrize(
    "namespace, attr", _HOOKS, ids=[f"{ns.__name__}.{attr}" for ns, attr in _HOOKS]
)
def test_traced_name_exists(namespace, attr):
    assert callable(getattr(namespace, attr, None)), f"{namespace.__name__}.{attr} is gone"


_MICRO_IMPORTS = sorted(
    alias.name
    for node in ast.walk(ast.parse((BENCH / "micro.py").read_text()))
    if isinstance(node, ast.ImportFrom) and node.module == "atsplit"
    for alias in node.names
)


def test_micro_imports_something_from_atsplit():
    assert "at_slice" in _MICRO_IMPORTS


@pytest.mark.parametrize("name", _MICRO_IMPORTS)
def test_micro_import_exists(name):
    assert hasattr(atsplit, name), f"atsplit.{name} is gone"
