"""The benchmark tracer's hooks and the benchmark child's names resolve on
the package.

``bench/tracer.py`` replaces each ``(module, attribute)`` of its ``TRACED``
table without a guard, so a renamed or removed function kills every traced
benchmark run; ``bench/child.py`` calls ``te.<name>`` and imports
``thermoevo.cli.RunConfig``.  These tests read both files by path and look
each name up.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
CHILD = TRACER.with_name("child.py")


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


def child_names():
    """``(module, name)`` of every ``te.<name>`` in the child, and its RunConfig."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    names = {("thermoevo", node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "te"}
    assert names, f"no te.<name> found in {CHILD}"
    return sorted(names | {("thermoevo.cli", "RunConfig")})


@pytest.mark.parametrize("module_name, name", child_names())
def test_child_name_resolves(module_name, name):
    assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"
