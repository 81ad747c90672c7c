"""Spans around the public functions of each thermoevo module.

The traced child process calls :meth:`Tracer.install` after importing the
package.  Every thermoevo module attribute that *is* one of the functions in
``TRACED`` is replaced by a wrapper, so each call records a span whichever
module namespace the caller looks the name up in (``thermoevo.cli.solve``,
``thermoevo.evolution.solve`` and ``thermoevo.solve`` are one function).
The package source is not touched.

A span's self time is its duration minus the durations of the spans it
directly encloses.  The pipeline is single-threaded with no queues, so
spans nest strictly and no layer has a waiting time to record.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

#: (module, attribute or Class.method) -> span name; its prefix is the layer
TRACED = {
    ("thermoevo.cli", "main"): "cli.main",
    ("thermoevo.models", "assemble_material_law"): "models.assemble",
    ("thermoevo.models", "compute_entropy"): "models.entropy",
    ("thermoevo.models", "recover_theta"): "models.recover_theta",
    ("thermoevo.rational", "realize_state_space"): "rational.realize",
    ("thermoevo.wellposed", "certify_wellposedness"): "wellposed.certify",
    ("thermoevo.wellposed", "check_symbol_boundary"): "wellposed.symbol_boundary",
    ("thermoevo.spatial", "build_operators"): "spatial.operators",
    ("thermoevo.spatial", "mode_decomposition"): "spatial.modes",
    ("thermoevo.forcing", "time_grid"): "forcing.assemble",
    ("thermoevo.forcing", "assemble_forcing"): "forcing.assemble",
    ("thermoevo.evolution", "splu"): "evolution.factorize",
    ("thermoevo.evolution", "solve"): "evolution.march",
    ("thermoevo.evolution", "energy_functional"): "evolution.energy",
    ("thermoevo.evolution", "solution_bound_check"): "evolution.bound",
    ("thermoevo.evolution", "causality_test"): "evolution.causality",
    ("thermoevo.evolution", "Trajectory.displacement"): "evolution.derive",
    ("thermoevo.evolution", "Trajectory.strain"): "evolution.derive",
    ("thermoevo.evolution", "Trajectory.theta"): "evolution.derive",
    ("thermoevo.evolution", "Trajectory.entropy"): "evolution.derive",
    ("thermoevo.evolution", "Trajectory.export_csv"): "evolution.export",
    ("thermoevo.oracle", "spectral_solve"): "oracle.spectral",
    ("thermoevo.oracle", "compare"): "oracle.compare",
}


def _count_lu_fill(tracer, lu, args):
    tracer.add("lu_fill", int(lu.L.nnz + lu.U.nnz))


def _count_sizes(tracer, trajectory, args):
    problem = trajectory.problem
    tracer.counts["n_dof"] = problem.op.n_dof
    tracer.counts["n_aux"] = problem.aux_chain.n_aux
    tracer.counts["n_steps"] = problem.n_steps
    tracer.add("dof_steps", problem.op.n_dof * problem.n_steps)


def _count_export_bytes(tracer, written, args):
    tracer.add("export_bytes", sum(Path(p).stat().st_size for p in written))


#: span name -> hook(tracer, result, args) run after the span closes
AFTER = {
    "evolution.factorize": _count_lu_fill,
    "evolution.march": _count_sizes,
    "evolution.export": _count_export_bytes,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.counts = {}
        self._open = []

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        after = AFTER.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every lookup site of the traced functions in loaded modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "thermoevo" or name.startswith("thermoevo.")) and m]
        for (module_name, qualname), name in TRACED.items():
            holder = sys.modules.get(module_name)
            if holder is None:
                continue  # thermoevo.cli in a run that never imports it
            class_name, _, attr = qualname.rpartition(".")
            if class_name:  # a method: callers find it on the class
                cls = getattr(holder, class_name)
                setattr(cls, attr, self.wrap(getattr(cls, attr), name))
                continue
            original = getattr(holder, attr)
            wrapper = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self) -> dict:
        """Self seconds and calls per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, calls = {}, {}
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls, "counts": dict(self.counts)}
