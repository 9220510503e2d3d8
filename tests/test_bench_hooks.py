"""The benchmark tracer (``bench/trace_cli.py``) wraps program functions by
module and attribute name.  Renaming or deleting one of them must fail
here rather than silently break ``bench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

TRACE_CLI = Path(__file__).resolve().parent.parent / "bench" / "trace_cli.py"


def _load_trace_cli():
    spec = importlib.util.spec_from_file_location("bench_trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_trace_cli = _load_trace_cli()
_HOOKS = [(namespace, attr) for namespace, attr, _ in _trace_cli.SPANNED + _trace_cli.COUNTED]


@pytest.mark.parametrize(
    "namespace, attr", _HOOKS, ids=[f"{ns.__name__}.{attr}" for ns, attr in _HOOKS]
)
def test_traced_name_exists(namespace, attr):
    assert callable(getattr(namespace, attr, None)), f"{namespace.__name__}.{attr} is gone"
