"""Every function the benchmark tracer wraps still exists under its recorded name.

Plain benchmark runs never install the tracer, so a renamed or deleted
function would only break ``perfbench/run.py --trace 1``. This test reads
the tracer's table and changes nothing in ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in _T.TRACED],
                         ids=[f"{m}.{a}" for m, a, _ in _T.TRACED])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"intersective.{module}"), attr))


def test_whole_modules_import():
    for module in _T.WHOLE_MODULES:
        importlib.import_module(f"intersective.{module}")
