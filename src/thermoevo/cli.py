"""Command-line front end: config ingestion, run orchestration, emission.

One JSON config drives a run; flags only select the mode, the config path
and the output directory.  All numeric report output is written with fixed
17-significant-digit formatting so identical configs produce byte-identical
artifacts.

``verify`` runs the checks listed in ``_CHECKS``, each one function that
returns its ``verify.json`` entry and failure lines; a check is added there
and nowhere else.

Exit codes: 0 success, 1 input error or unwritable output, 2 certification
verdict not satisfied, that is violated or inconclusive (check mode), 3
verification tolerance exceeded (verify mode).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import _json
from ._frozen import Frozen
from .errors import (
    ConfigError,
    InputError,
    OracleRejectionError,
    ThermoevoError,
)
from .evolution import (
    BACKWARD_EULER,
    TRAPEZOIDAL,
    BoundCheckResult,
    EvolutionProblem,
    causality_test,
    solution_bound_check,
    solve,
)
from .forcing import assemble_forcing, step_count, time_grid
from .models import (
    ModelFamily,
    ModelSpec,
    assemble_material_law,
    canonical_spec,
    pattern_table,
)
from .oracle import compare, spectral_solve
from .rational import RationalFunction
from .signals import WeightedSignal, weighted_norm
from .spatial import Grid1D, build_operators
from .wellposed import certify_wellposedness

__all__ = ["RunConfig", "run", "main"]

MODES = ("check", "simulate", "verify", "patterns")

DEFAULT_TOLERANCES = {
    "solver_vs_oracle": 1e-2,
    "causality_leakage": 1e-6,
    "bound_slack": 0.05,
}

#: skip reason when exp(-rho t) underflows past t = 0 for a nonzero run
_UNDERFLOW = "the rho-weighted norm of a nonzero trajectory underflows to 0 at rho={:g}"

_TOP_KEYS = {"model", "grid", "time", "forcing", "output", "tolerances"}
_MODEL_KEYS = {"family", "coefficients"}
_GRID_KEYS = {"L", "n_cells"}
_TIME_KEYS = {"t_max", "dt", "rho", "scheme"}
_FORCING_KEYS = {"kind", "center", "width", "delay", "block", "spatial_profile"}

_SECTIONS_BY_MODE = {
    "check": {"model"},
    "patterns": set(),
    "simulate": {"model", "grid", "time", "forcing"},
    "verify": {"model", "grid", "time", "forcing"},
}


def _check_keys(payload: dict, allowed: set, context: str) -> None:
    if not isinstance(payload, dict):
        raise ConfigError(f"section '{context}' must be an object")
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in '{context}'")


def _finite(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{context}' must be a number")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int too large for a float
        raise ConfigError(f"'{context}' must be finite")
    return float(value)


def _parse_coefficient(name, value):
    """A ``{"num", "den"}`` object as a rational function; else ``value``."""
    if not isinstance(value, dict):
        return value
    context = f"model.coefficients.{name}"
    _check_keys(value, {"num", "den"}, context)
    if set(value) != {"num", "den"}:
        raise ConfigError(f"'{context}' needs both 'num' and 'den'")
    try:
        return RationalFunction(value["num"], value["den"])
    except InputError as exc:
        raise ConfigError(f"'{context}': {exc}") from None


class RunConfig(Frozen):
    """Parsed and validated run configuration."""

    def __init__(self, mode: str, payload: dict, spec: ModelSpec = None, grid: Grid1D = None,
                 time: dict = None, forcing: dict = None, output: Path = None,
                 tolerances: dict = None, all_families: bool = False):
        vars(self).update(mode=mode, payload=payload, spec=spec, grid=grid, time=time,
                          forcing=forcing, output=output, tolerances=tolerances,
                          all_families=all_families)

    @classmethod
    def from_dict(cls, payload: dict, mode: str, out_dir=None,
                  all_families: bool = False) -> "RunConfig":
        if mode not in MODES:
            raise ConfigError(f"unknown mode '{mode}'")
        _check_keys(payload, _TOP_KEYS, "config")
        needed = _SECTIONS_BY_MODE[mode]
        if mode == "patterns" and not all_families:
            needed = {"model"}
        missing = needed - set(payload)
        if missing:
            raise ConfigError(f"mode '{mode}' requires sections {sorted(missing)}")

        spec = None
        if "model" in payload:
            _check_keys(payload["model"], _MODEL_KEYS, "model")
            if _MODEL_KEYS - set(payload["model"]):
                raise ConfigError("'model' needs both 'family' and 'coefficients'")
            try:
                family = ModelFamily(payload["model"]["family"])
            except ValueError:
                raise ConfigError(
                    f"unknown family '{payload['model']['family']}'"
                ) from None
            coefficients = payload["model"]["coefficients"]
            if not isinstance(coefficients, dict):
                raise ConfigError("'model.coefficients' must be an object")
            coeffs = {
                name: _parse_coefficient(name, value)
                for name, value in coefficients.items()
            }
            spec = ModelSpec(family, coeffs)

        grid = None
        if "grid" in payload:
            _check_keys(payload["grid"], _GRID_KEYS, "grid")
            if _GRID_KEYS - set(payload["grid"]):
                raise ConfigError("'grid' needs 'L' and 'n_cells'")
            n_cells = payload["grid"]["n_cells"]
            if isinstance(n_cells, bool) or not isinstance(n_cells, int):
                raise ConfigError("'grid.n_cells' must be an integer")
            grid = Grid1D(_finite(payload["grid"]["L"], "grid.L"), n_cells)

        time_section = None
        if "time" in payload:
            _check_keys(payload["time"], _TIME_KEYS, "time")
            if _TIME_KEYS - set(payload["time"]):
                raise ConfigError("'time' needs 't_max', 'dt', 'rho', 'scheme'")
            scheme = payload["time"]["scheme"]
            if scheme not in (BACKWARD_EULER, TRAPEZOIDAL):
                raise ConfigError(f"unknown scheme '{scheme}'")
            time_section = {
                "t_max": _finite(payload["time"]["t_max"], "time.t_max"),
                "dt": _finite(payload["time"]["dt"], "time.dt"),
                "rho": _finite(payload["time"]["rho"], "time.rho"),
                "scheme": scheme,
            }

        forcing = None
        if "forcing" in payload:
            _check_keys(payload["forcing"], _FORCING_KEYS, "forcing")
            forcing = dict(payload["forcing"])
            for key in ("center", "width", "delay"):
                if key in forcing:
                    forcing[key] = _finite(forcing[key], f"forcing.{key}")
            for key in ("kind", "block", "spatial_profile"):
                if key not in forcing:
                    raise ConfigError(f"'forcing' needs '{key}'")
                if not isinstance(forcing[key], str):
                    raise ConfigError(f"'forcing.{key}' must be a string")

        tolerances = dict(DEFAULT_TOLERANCES)
        if "tolerances" in payload:
            _check_keys(payload["tolerances"], set(DEFAULT_TOLERANCES), "tolerances")
            for key, value in payload["tolerances"].items():
                tolerances[key] = _finite(value, f"tolerances.{key}")

        output = payload.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("'output' must be a path string")
        output = out_dir or output
        return cls(
            mode=mode,
            payload=payload,
            spec=spec,
            grid=grid,
            time=time_section,
            forcing=forcing,
            output=Path(output) if output else None,
            tolerances=tolerances,
            all_families=all_families,
        )


def _emit(path: Path, text: str, written: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    written.append(path)


def _check_size(law, grid: Grid1D, n_steps: int) -> None:
    """Refuse a run whose arrays would not fit in physical memory, before any
    of them is allocated: per time step, the states and the derived export
    fields count ``3 n_dof`` values (the factored forcing is not counted), and
    the memory states at most one per denominator degree of their law and owner."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # a platform without these
        return
    n_dof = 2 * (grid.n_nodes + grid.n_faces)
    n_aux = sum(count * max(r.den.size - 1 for r in laws)
                for laws, count in ((law.a2, grid.n_faces), (law.a1, grid.n_nodes)))
    need = 8 * (n_steps + 1) * (3 * n_dof + n_aux)
    if need > memory:
        raise InputError(
            f"the run needs about {need / 2**30:.3g} GiB of arrays ({n_steps + 1:.3g} time steps, "
            f"{n_dof} unknowns, up to {n_aux} memory states), more than the "
            f"{memory / 2**30:.3g} GiB of physical memory")


def _build_problem(config: RunConfig):
    law = assemble_material_law(config.spec)
    _check_size(law, config.grid, step_count(config.time["t_max"], config.time["dt"]))
    op = build_operators(config.grid)
    t = time_grid(config.time["t_max"], config.time["dt"])
    forcing = assemble_forcing(
        op, t, config.time["rho"],
        config.forcing["kind"], config.forcing["block"],
        config.forcing["spatial_profile"],
        center=config.forcing.get("center"),
        width=config.forcing.get("width"),
        delay=config.forcing.get("delay"),
    )
    return law, EvolutionProblem(law, op, forcing, config.time["scheme"])


def run(config: RunConfig, stream=None) -> int:
    """Execute one run; returns the process exit status."""
    stream = stream or sys.stdout
    written = []

    if config.mode == "patterns":
        if config.all_families:
            tables = []
            for family in ModelFamily:
                if family is ModelFamily.CUSTOM:
                    continue
                tables.append(pattern_table(assemble_material_law(canonical_spec(family))))
            text = "\n".join(tables)
        else:
            text = pattern_table(assemble_material_law(config.spec))
        stream.write(text)
        if config.output:
            _emit(config.output / "patterns.txt", text, written)
        return 0

    if config.mode == "check":
        report = certify_wellposedness(assemble_material_law(config.spec))
        text = report.to_json()
        stream.write(text)
        if config.output:
            _emit(config.output / "report.json", text, written)
        return 0 if report.verdict == "satisfied" else 2

    # simulate / verify
    if config.output is None:
        raise ConfigError(f"mode '{config.mode}' needs an output directory "
                          "(config 'output' or --out)")
    law, problem = _build_problem(config)
    report = certify_wellposedness(law)
    trajectory = solve(problem)
    config.output.mkdir(parents=True, exist_ok=True)
    written.extend(trajectory.export_csv(config.output))

    manifest = {
        "config": config.payload,
        "verdict": report.verdict,
        "classification": report.classification,
        "c_estimate": report.c_estimate,
        "rho_min": report.rho_min,
        "rho_used": problem.rho,
        "scheme": problem.scheme,
        "n_steps": problem.n_steps,
    }
    _emit(config.output / "manifest.json", _json.dumps(manifest), written)

    if config.mode == "simulate":
        return 0

    return _verify(config, problem, report, trajectory, written, stream)


def _underflow(trajectory) -> str:
    """Why a nonzero trajectory has a zero weighted space-time norm, so that
    nothing weighted can be compared or bounded, or '' when it has not:
    exp(-rho t) underflowed past t = 0, or the norm is below the float range
    once weighted by the cell size h."""
    if trajectory.space_time_norm() != 0.0 or not np.any(trajectory.states):
        return ""
    rho = trajectory.problem.rho
    if weighted_norm(WeightedSignal(trajectory.t, trajectory.states, rho)) == 0.0:
        return _UNDERFLOW.format(rho)
    return ("the h-weighted norm of a nonzero trajectory underflows to 0 at "
            f"h={trajectory.problem.op.grid.h:g}")


def _over(name: str, value: float, tol: dict) -> list:
    """The failure line of a measured ``value`` above its tolerance ``tol[name]``."""
    return [f"{name} {value:.3e} > {tol[name]:.3e}"] if value > tol[name] else []


def _comparison(config, problem, report, trajectory):
    try:
        reference = spectral_solve(problem)
    except OracleRejectionError as exc:
        return {"status": "skipped", "reason": str(exc)}, []
    result = compare(trajectory, reference)
    reason = _underflow(reference) if result.overall == 0.0 else ""
    if reason:
        return {"status": "skipped", "reason": reason}, []
    entry = {"status": "ok", "per_field": result.per_field, "overall": result.overall}
    return entry, _over("solver_vs_oracle", result.overall, config.tolerances)


def _causality(config, problem, report, trajectory):
    if config.forcing["kind"] != "delayed_step":
        return {"status": "skipped", "leakage": None,
                "reason": "forcing kind has no exact pre-support"}, []
    result = causality_test(problem, config.forcing["delay"], trajectory)
    if result.skipped:
        return {"status": "skipped", "leakage": None, "reason": result.reason}, []
    entry = {"status": "ok", "leakage": result.leakage, "reason": ""}
    return entry, _over("causality_leakage", result.leakage, config.tolerances)


def _bound_check(config, problem, report, trajectory):
    try:
        check = solution_bound_check(problem, report, trajectory)
    except InputError as exc:
        return {"status": "skipped", "reason": str(exc)}, []
    reason = _underflow(trajectory) if check.lhs == 0.0 else ""
    if reason:
        return {"status": "skipped", "reason": reason}, []
    entry = {"status": "ok", "lhs": check.lhs, "rhs": check.rhs, "c_used": check.c_used,
             "tail_ratio": check.tail_ratio}
    slack = config.tolerances["bound_slack"]
    if not BoundCheckResult(check.lhs, check.rhs, check.c_used, check.tail_ratio, slack).ok:
        return entry, [f"a_priori_bound lhs {check.lhs:.6e} > rhs {check.rhs:.6e} "
                       f"(slack {slack})"]
    return entry, []


#: the verify checks in verify.json order.  Each takes (config, problem,
#: report, trajectory) and returns its verify.json entry and failure lines; it
#: looks the library functions up at call time, so tracing wrappers see them.
_CHECKS = (("comparison", _comparison), ("causality", _causality),
           ("bound_check", _bound_check))


def _verify(config, problem, report, trajectory, written, stream) -> int:
    payload, failures = {}, []
    for name, check in _CHECKS:
        payload[name], lines = check(config, problem, report, trajectory)
        if lines:
            payload[name]["status"] = "failed"
        failures += lines
    payload.update(tolerances=config.tolerances, failures=failures)
    _emit(config.output / "verify.json", _json.dumps(payload), written)
    skipped = [name for name, _ in _CHECKS if payload[name]["status"] == "skipped"]
    for line in failures:
        stream.write(f"FAIL {line}\n")
    if len(skipped) == len(_CHECKS):
        stream.write(f"verify: no check ran (skipped: {', '.join(skipped)})\n")
    elif not failures:
        stream.write("verify: all checks within tolerance"
                     + (f" (skipped: {', '.join(skipped)})" if skipped else "") + "\n")
    return 3 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermoevo",
        description="Certify and simulate thermoelastic models in evolutionary form.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", type=Path, help="JSON run configuration")
    parser.add_argument("--all", action="store_true",
                        help="patterns mode: emit tables for every named family")
    parser.add_argument("--out", type=Path, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            if args.mode == "patterns" and args.all:
                payload = {}
            else:
                raise ConfigError("--config is required for this mode")
        else:
            try:
                payload = json.loads(args.config.read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}") from None
            except ValueError as exc:  # not UTF-8, not JSON, or an integer past int's digit limit
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        config = RunConfig.from_dict(payload, args.mode, out_dir=args.out,
                                     all_families=args.all)
        return run(config)
    except (ThermoevoError, OSError) as exc:  # OSError: a config or output path unusable
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
