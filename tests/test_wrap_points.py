"""Every name that the benchmark's traced run wraps must exist in gtt.

``perfbench/tracing.py`` replaces module attributes of gtt with recording
wrappers; a name that no longer resolves drops its per-layer metrics from
the traced result.  The file needs only the standard library, so it is
loaded by path without importing the rest of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracing()


@pytest.mark.parametrize(
    "modname, attr, name", _T.ENTRY_POINTS + _T.INTERNAL_POINTS + _T.COUNTED_POINTS
)
def test_wrap_point_resolves(modname, attr, name):
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), f"{modname}.{attr} ({name})"
