"""Benchmark workloads: their generated inputs and the digests of their outputs.

A workload's inputs depend only on ``(variant, size)``; the benchmark seed
selects the variant as ``seed % N_VARIANTS`` and each variant draws its
coefficients from ``numpy.random.default_rng(variant)``.  Digests of every
variant's outputs were recorded from the program by ``record.py`` into
``reference.json``, so every run can be checked against them.

Why these three: each stresses layers the others leave idle.

* ``verify_uniform`` -- CLI ``verify`` on a uniform uncoupled ``dpl_i`` law
  (the oracle's documented domain).  The spectral oracle does most of the
  work; CSV export, the causality re-march and the bound check also run.
* ``simulate_coupled`` -- CLI ``simulate`` on the canonical coupled
  ``green_lindsay`` law.  CSV export with the entropy memory (one damping
  realization per column) dominates; the ``mode_3`` forcing runs the dense
  mode decomposition; no oracle.
* ``api_sweep`` -- the README's Python-API workflow with no files on a
  piecewise-constant ``dpl_i`` law with per-cell ``kappa`` and ``C``: one
  realization per distinct cell law, certification, the march under both
  schemes and the symbol-sampling bound check.  No export and no oracle.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_VARIANTS = 16

#: relative digest tolerance: the acceptance suite's energy-drift pin (criterion 9)
DIGEST_RTOL = 1e-8

#: columns (or series points) kept per digest entry, evenly spaced
DIGEST_POINTS = 16

SIZES = {
    "verify_uniform": {"full": {"n_cells": 128, "t_max": 0.25},
                       "tiny": {"n_cells": 12, "t_max": 0.125}},
    "simulate_coupled": {"full": {"n_cells": 128, "t_max": 0.5},
                         "tiny": {"n_cells": 12, "t_max": 0.0625}},
    "api_sweep": {"full": {"n_cells": 128, "t_max": 2.0},
                  "tiny": {"n_cells": 12, "t_max": 0.0625}},
}

DT = 2.0 ** -10


def _uniform(rng, low, high):
    return float(rng.uniform(low, high))


def verify_uniform(variant: int, size: str) -> dict:
    """Config for CLI ``verify``: uniform uncoupled dpl_i, delayed step on f."""
    rng = np.random.default_rng(variant)
    dims = SIZES["verify_uniform"][size]
    return {
        "model": {"family": "dpl_i", "coefficients": {
            "rho0": _uniform(rng, 0.8, 1.25), "nu": _uniform(rng, 0.8, 1.25),
            "C": _uniform(rng, 0.8, 1.25), "Gamma": 0.0,
            "kappa": _uniform(rng, 0.5, 2.0), "n1": _uniform(rng, 0.4, 0.6),
            "n2": _uniform(rng, 0.2, 0.3)}},
        "grid": {"L": 1.0, "n_cells": dims["n_cells"]},
        "time": {"t_max": dims["t_max"], "dt": DT, "rho": 1.0,
                 "scheme": "backward_euler"},
        "forcing": {"kind": "delayed_step", "block": "f", "spatial_profile": "bump",
                    "delay": DT * int(rng.integers(8, 24))},
    }


def simulate_coupled(variant: int, size: str) -> dict:
    """Config for CLI ``simulate``: canonical green_lindsay, pulse on h, mode_3."""
    rng = np.random.default_rng(variant)
    dims = SIZES["simulate_coupled"][size]
    return {
        "model": {"family": "green_lindsay", "coefficients": {
            "rho0": 1.0, "C": 1.0, "Gamma": 0.5, "kappa": 1.0,
            "n0": 0.5, "b": 0.4, "d": 3.0, "h": 1.0}},
        "grid": {"L": 1.0, "n_cells": dims["n_cells"]},
        "time": {"t_max": dims["t_max"], "dt": DT, "rho": 1.0,
                 "scheme": "trapezoidal"},
        "forcing": {"kind": "gaussian_pulse", "block": "h", "spatial_profile": "mode_3",
                    "center": _uniform(rng, 0.02, 0.04),
                    "width": _uniform(rng, 0.01, 0.02)},
    }


def api_sweep(variant: int, size: str) -> dict:
    """Spec for the Python-API workflow: per-cell kappa and C, Gamma = 0.5."""
    rng = np.random.default_rng(variant)
    dims = SIZES["api_sweep"][size]
    n = dims["n_cells"]
    return {
        "coefficients": {
            "rho0": 1.0, "nu": 1.0, "Gamma": 0.5, "n1": 0.5, "n2": 0.25,
            "C": rng.uniform(0.8, 1.25, n).tolist(),
            "kappa": rng.uniform(0.5, 2.0, n).tolist()},
        "n_cells": n, "t_max": dims["t_max"], "dt": DT, "rho": 1.0,
        "forcing": {"kind": "gaussian_pulse", "block": "f", "profile": "bump",
                    "center": _uniform(rng, 0.02, 0.04),
                    "width": _uniform(rng, 0.01, 0.02)},
    }


#: workload -> (kind, CLI mode, input generator)
WORKLOADS = {
    "verify_uniform": ("cli", "verify", verify_uniform),
    "simulate_coupled": ("cli", "simulate", simulate_coupled),
    "api_sweep": ("api", None, api_sweep),
}


def _points(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, DIGEST_POINTS)).round().astype(int))


def entry(values: np.ndarray) -> dict:
    """Sign-invariant digest of a (time x component) field: the L2 norm over
    time of evenly spaced columns, plus the norm of the whole field."""
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    norms = np.sqrt(np.sum(values ** 2, axis=0))
    return {"total": float(np.linalg.norm(norms)),
            "columns": norms[_points(norms.size)].tolist()}


def csv_digest(directory: Path) -> dict:
    """Digest of every field CSV a CLI run wrote (the time column dropped)."""
    digest = {}
    for path in sorted(Path(directory).glob("*.csv")):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        digest[path.stem] = entry(data[:, 1:])
    return digest


def mismatches(got: dict, want: dict, rtol: float = DIGEST_RTOL) -> list:
    """Descriptions of every digest entry outside ``rtol`` of the reference
    (relative to that entry's total norm)."""
    if set(got) != set(want):
        return [f"digest entries {sorted(got)} != reference {sorted(want)}"]
    problems = []
    for key, ref in want.items():
        val = got[key]
        scale = rtol * max(abs(ref["total"]), 1e-300)
        if len(val["columns"]) != len(ref["columns"]):
            problems.append(f"{key}: {len(val['columns'])} columns, reference has "
                            f"{len(ref['columns'])}")
            continue
        worst = max([abs(val["total"] - ref["total"])]
                    + [abs(a - b) for a, b in zip(val["columns"], ref["columns"])])
        if worst > scale:
            problems.append(f"{key}: deviates {worst:.3e} from reference "
                            f"(allowed {scale:.3e})")
    return problems
