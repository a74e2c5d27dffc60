"""Every trace point of the benchmark resolves in the program.

``perfbench/spans.py`` patches program functions by module and
attribute name; a refactor that moves or renames one would break
``perfbench/run.py --trace 1``. The spans file is only read here.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


@pytest.mark.parametrize(
    "module,attr,span", _spans(), ids=lambda x: x if isinstance(x, str) else None
)
def test_trace_point_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))
