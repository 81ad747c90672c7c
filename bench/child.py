"""One benchmark child process: a set-up, or a run of one workload.

Usage: ``python3 child.py JOB.json``.  The job names the workload kind
(``cli`` or ``api``), the phase (``setup`` or ``run``), whether to trace,
and the generated inputs.  The result goes to the job's ``result`` path:

* ``setup`` writes ``ready``, the ``time.monotonic()`` reading at the moment
  the first time step can be taken (after the step matrix is factorized);
* ``run`` of the ``api`` kind writes the output digest and failures;
* a traced run adds the span summary of :class:`tracer.Tracer`.

Untraced CLI runs do not come here: the benchmark runs the real
``python3 -m thermoevo.cli`` for them.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _first_step(te, problem):
    """Take the first implicit step: the end of set-up."""
    import numpy as np

    f = problem.forcing.samples
    te.step_implicit(problem, np.zeros(problem.op.n_dof),
                     np.zeros(problem.aux_chain.n_aux), f[1], f[0])


def cli_setup(config_path: str, mode: str) -> None:
    """The public calls ``thermoevo.cli.run`` makes before its march."""
    import thermoevo as te
    from thermoevo.cli import RunConfig

    payload = json.loads(Path(config_path).read_text(encoding="utf-8"))
    config = RunConfig.from_dict(payload, mode)
    law = te.assemble_material_law(config.spec)
    op = te.build_operators(config.grid)
    t = te.time_grid(config.time["t_max"], config.time["dt"])
    forcing = te.assemble_forcing(
        op, t, config.time["rho"], config.forcing["kind"], config.forcing["block"],
        config.forcing["spatial_profile"], center=config.forcing.get("center"),
        width=config.forcing.get("width"), delay=config.forcing.get("delay"))
    problem = te.EvolutionProblem(law, op, forcing, config.time["scheme"])
    te.certify_wellposedness(law)
    _first_step(te, problem)


def api_workflow(spec: dict, setup_only: bool = False) -> dict:
    """The README's Python-API workflow: one law solved under both schemes,
    then its energy series and a-priori bound.  Returns the output digest
    and the failures found, or stops after the first step when
    ``setup_only``."""
    import thermoevo as te
    from workloads import entry

    law = te.assemble_material_law(te.ModelSpec(te.ModelFamily.DPL_I,
                                                spec["coefficients"]))
    report = te.certify_wellposedness(law)
    op = te.build_operators(te.Grid1D(1.0, spec["n_cells"]))
    t = te.time_grid(spec["t_max"], spec["dt"])
    pulse = spec["forcing"]
    forcing = te.assemble_forcing(op, t, spec["rho"], pulse["kind"], pulse["block"],
                                  pulse["profile"], center=pulse["center"],
                                  width=pulse["width"])
    digest, failures = {}, []
    if report.verdict != "satisfied":
        failures.append(f"certification verdict {report.verdict}")
    for scheme in (te.BACKWARD_EULER, te.TRAPEZOIDAL):
        problem = te.EvolutionProblem(law, op, forcing, scheme)
        if setup_only:
            _first_step(te, problem)
            return {}
        trajectory = te.solve(problem)
        digest[f"{scheme}.energy"] = entry(te.energy_functional(trajectory))
        bound = te.solution_bound_check(problem, report, trajectory)
        digest[f"{scheme}.space_time_norm"] = entry([bound.lhs])
        if bound.window_ok and not bound.ok:
            failures.append(f"{scheme}: a-priori bound lhs {bound.lhs:.6e} > "
                            f"rhs {bound.rhs:.6e}")
    return {"digest": digest, "failures": failures}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    with tracer.span("cli.import") if tracer else nullcontext():
        if job["kind"] == "cli":
            import thermoevo.cli  # noqa: F401  (the CLI entry point and the package)
        else:
            import thermoevo  # noqa: F401
    if tracer:
        tracer.install()

    status = 0
    result = {}
    if job["phase"] == "setup":
        if job["kind"] == "cli":
            cli_setup(job["config"], job["mode"])
        else:
            api_workflow(job["spec"], setup_only=True)
        result["ready"] = time.monotonic()
    elif job["kind"] == "cli":
        status = sys.modules["thermoevo.cli"].main(
            [job["mode"], "--config", job["config"], "--out", job["out"]])
    else:
        result = api_workflow(job["spec"])
    if tracer:
        result["trace"] = tracer.summary()
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
