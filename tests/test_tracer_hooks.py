"""The benchmark tracer's hooks resolve on the package.

``bench/tracer.py`` replaces each ``(module, attribute)`` of its ``TRACED``
table without a guard, so a renamed or removed function kills every traced
benchmark run.  This test reads the table by path and looks each name up.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.TRACED)


@pytest.mark.parametrize("module_name, qualname", traced_names())
def test_traced_name_resolves(module_name, qualname):
    importlib.import_module("thermoevo.cli")
    holder = importlib.import_module(module_name)
    class_name, _, attr = qualname.rpartition(".")
    if class_name:  # a method, hooked on its class
        holder = getattr(holder, class_name)
    assert callable(getattr(holder, attr, None)), f"{module_name}.{qualname}"
