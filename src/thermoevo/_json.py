"""Deterministic JSON emission with fixed float formatting.

Reports and manifests must be byte-identical across runs, so floats are
always written with 17 significant digits (full round-trip precision) and
dictionaries keep insertion order.
"""

from __future__ import annotations

import json

import numpy as np


def dumps(obj) -> str:
    """``obj`` as JSON text, indented two spaces per level."""
    out = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _emit(obj, out, level):
    pad = "  " * level
    pad_in = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad_in}{json.dumps(str(key), ensure_ascii=False)}: ")
            _emit(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(pad_in)
            _emit(value, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    else:
        raise TypeError(f"cannot serialize {type(obj)} deterministically")


def format_float(x: float) -> str:
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if np.isnan(x):
        return "NaN"
    return format(x, ".17g")
