"""Benchmark of thermoevo: three workloads, end-to-end metrics and traced layers.

Run from the root of a source checkout::

    python3 bench/run.py --workload verify_uniform --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 30 --trace 1

Every measured run is a fresh child process (a closed loop: the next one
starts when the previous one has exited), run one after another from this
process.  Per workload there is one discarded warm-up (bytecode compilation,
page cache), then runs until ``--seconds`` have passed:

* ``--trace 0`` repeats: the machine-speed probe, two untraced runs and a
  set-up-only child.  It reports ``run_s`` (wall seconds of the whole run,
  interpreter start included), ``setup_s`` (process start until the first
  step can be taken), both rescaled by ``probe.NOMINAL_S`` over the latest
  probe's wall time, and ``peak_rss_mb`` (the run child's peak resident
  memory);
* ``--trace 1`` alternates a traced run with an untraced one and reports the
  per-layer self times and counts of ``tracer.py``, the unattributed rest of
  the traced wall time, and the tracing overhead.

Each run is checked: exit status 0, an empty ``failures`` list in
``verify.json``, the output digest against ``reference.json``, and, for the
CLI workloads, byte-identical artifacts across the runs.  Failed runs count
in ``fail_rate`` (the ``failed`` / ``attempted`` of the result line).  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: per-layer metric -> (span name, what to read from the span summary)
SPAN_METRICS = {
    "cli.import_s": ("cli.import", "self_s"),
    "cli.main_s": ("cli.main", "self_s"),
    "models.assemble_s": ("models.assemble", "self_s"),
    "models.entropy_s": ("models.entropy", "self_s"),
    "models.recover_theta_s": ("models.recover_theta", "self_s"),
    "rational.realize_s": ("rational.realize", "self_s"),
    "rational.realize_calls": ("rational.realize", "calls"),
    "wellposed.certify_s": ("wellposed.certify", "self_s"),
    "wellposed.symbol_boundary_s": ("wellposed.symbol_boundary", "self_s"),
    "spatial.operators_s": ("spatial.operators", "self_s"),
    "spatial.modes_s": ("spatial.modes", "self_s"),
    "spatial.modes_calls": ("spatial.modes", "calls"),
    "forcing.assemble_s": ("forcing.assemble", "self_s"),
    "evolution.factorize_s": ("evolution.factorize", "self_s"),
    "evolution.march_s": ("evolution.march", "self_s"),
    "evolution.solve_calls": ("evolution.march", "calls"),
    "evolution.derive_s": ("evolution.derive", "self_s"),
    "evolution.export_s": ("evolution.export", "self_s"),
    "evolution.energy_s": ("evolution.energy", "self_s"),
    "evolution.bound_s": ("evolution.bound", "self_s"),
    "evolution.causality_s": ("evolution.causality", "self_s"),
    "oracle.spectral_s": ("oracle.spectral", "self_s"),
    "oracle.compare_s": ("oracle.compare", "self_s"),
}

#: per-layer metric -> tracer counter
COUNT_METRICS = {
    "evolution.lu_fill": "lu_fill",
    "evolution.export_bytes": "export_bytes",
    "evolution.n_dof": "n_dof",
    "evolution.n_aux": "n_aux",
    "evolution.n_steps": "n_steps",
}

#: metric-name suffix -> unit, longest suffixes first
UNITS = {"_per_dof_step": "ns", "_per_s": "MB/s", "_calls": "count", "_mb": "MB",
         "_s": "s"}


def unit(metric: str) -> str:
    for suffix, name in UNITS.items():
        if metric.endswith(suffix):
            return name
    return "count"


class Runner:
    """Runs the child processes of one workload inside a work directory."""

    def __init__(self, root: Path, work: Path, name: str, inputs: dict):
        self.root = root
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.kind, self.mode, _ = workloads.WORKLOADS[name]
        self.out = work / "out"
        self.result = work / "result.json"
        self.log = work / "log.txt"
        self.config = work / "config.json"
        self.config.write_text(json.dumps(inputs, indent=1), encoding="utf-8")
        self.inputs = inputs
        threads = str(nproc())
        self.env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS=threads,
                        OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)   # runs use the warm-up's .pyc

    def _job(self, phase: str, trace: bool) -> list:
        job = {"kind": self.kind, "phase": phase, "trace": trace, "mode": self.mode,
               "config": str(self.config), "out": str(self.out),
               "spec": self.inputs, "result": str(self.result)}
        path = self.work / "job.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        return [sys.executable, str(HERE / "child.py"), str(path)]

    def _spawn(self, cmd: list) -> tuple:
        """Run ``cmd`` to its end: (start, wall seconds, exit status, peak RSS MB)."""
        self.result.unlink(missing_ok=True)
        with open(self.log, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4
        return start, wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6

    def error_tail(self) -> str:
        lines = self.log.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def run(self, trace: bool) -> dict:
        """One whole run; its result file is read back when there is one."""
        shutil.rmtree(self.out, ignore_errors=True)
        if self.kind == "cli" and not trace:
            cmd = [sys.executable, "-m", "thermoevo.cli", self.mode,
                   "--config", str(self.config), "--out", str(self.out)]
        else:
            cmd = self._job("run", trace)
        _, wall, status, rss = self._spawn(cmd)
        sample = {"wall": wall, "status": status, "rss": rss,
                  "error": self.error_tail() if status else ""}
        if self.result.exists():
            sample.update(json.loads(self.result.read_text(encoding="utf-8")))
        return sample

    def setup(self) -> float | None:
        """Seconds from spawning a set-up child until its first step was ready."""
        start, _, status, _ = self._spawn(self._job("setup", False))
        if status != 0 or not self.result.exists():
            return None
        return json.loads(self.result.read_text(encoding="utf-8"))["ready"] - start

    def probe(self) -> float:
        """Wall seconds of the machine-speed probe."""
        return self._spawn([sys.executable, str(HERE / "probe.py")])[1]

    def artifact_hashes(self) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.out.iterdir())} if self.out.is_dir() else {}


class Checker:
    """Output check of every run against the reference digest, and the
    determinism check of CLI artifacts across the runs of one invocation."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first_hashes = None
        self.digested = {}   # artifact hashes -> problems found in their digest

    def problems(self, runner: Runner, sample: dict) -> list:
        if sample["status"] != 0:
            return [f"exit status {sample['status']}: {sample['error']}"]
        if runner.kind == "api":
            return list(sample.get("failures", ["no result"])) + self._digest(
                sample.get("digest", {}))
        found = []
        if runner.mode == "verify":
            report = runner.out / "verify.json"
            failures = json.loads(report.read_text())["failures"] if report.exists() \
                else ["verify.json missing"]
            found += [f"verify: {f}" for f in failures]
        hashes = runner.artifact_hashes()
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            found.append("artifacts differ from the first run's (sha256)")
        key = json.dumps(hashes, sort_keys=True)
        if key not in self.digested:
            self.digested[key] = self._digest(workloads.csv_digest(runner.out))
        return found + self.digested[key]

    def _digest(self, digest: dict) -> list:
        if self.reference is None:   # recording the reference
            return []
        return workloads.mismatches(digest, self.reference)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    fitting = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    return fitting[-1] if fitting else None


def measure(name: str, inputs: dict, reference, seconds: float, trace: bool,
            root: Path, work: Path) -> dict:
    """Warm up, then alternate the two kinds of child until ``seconds`` pass."""
    runner = Runner(root, work, name, inputs)
    checker = Checker(reference)
    runner.run(trace=False)                     # warm-up, discarded
    if not trace:
        runner.setup()

    runs, traced, setups, problems = [], [], [], []
    attempted = failed = 0
    scale = 1.0

    def account(found):
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)
        return not found

    # set-up children need fewer samples: only their median is compared
    plan = ("run", "traced") if trace else ("probe", "run", "run", "setup")
    tried = set()
    deadline = time.monotonic() + seconds
    for step in itertools.cycle(plan):
        if step == "probe":
            scale = probe.NOMINAL_S / runner.probe()
        elif step == "setup":
            ready = runner.setup()
            if account([] if ready is not None else
                       [f"set-up child failed: {runner.error_tail()}"]):
                setups.append({"wall": ready, "scale": scale})
        else:
            sample = runner.run(trace=step == "traced")
            sample["scale"] = scale
            if account(checker.problems(runner, sample)):
                (traced if step == "traced" else runs).append(sample)
        tried.add(step)
        if time.monotonic() >= deadline and tried == set(plan):
            break
    return {"runs": runs, "traced": traced, "setups": setups,
            "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end(m: dict, scaled: bool = True) -> dict:
    """Samples of the untraced end-to-end metrics; times rescaled to the
    probe's nominal machine speed unless ``scaled`` is false."""
    def seconds(samples):
        return [s["wall"] * (s["scale"] if scaled else 1.0) for s in samples]

    series = {"run_s": seconds(m["runs"]), "setup_s": seconds(m["setups"]),
              "peak_rss_mb": [s["rss"] for s in m["runs"]]}
    return {k: v for k, v in series.items() if v}


def per_layer(m: dict) -> dict:
    """Medians over the traced runs of every per-layer metric."""
    rows = []
    for sample in m["traced"]:
        summary = sample["trace"]
        row = {metric: summary[field].get(span, 0)
               for metric, (span, field) in SPAN_METRICS.items()}
        row.update({metric: summary["counts"].get(key, 0)
                    for metric, key in COUNT_METRICS.items()})
        dof_steps = summary["counts"].get("dof_steps", 0)
        row["evolution.march_ns_per_dof_step"] = (
            row["evolution.march_s"] * 1e9 / dof_steps if dof_steps else 0.0)
        row["evolution.export_mb_per_s"] = (
            row["evolution.export_bytes"] / 1e6 / row["evolution.export_s"]
            if row["evolution.export_s"] else 0.0)
        row["trace.run_s"] = sample["wall"]
        row["trace.unattributed_s"] = sample["wall"] - sum(summary["self_s"].values())
        rows.append(row)
    if not rows or not m["runs"]:
        return {}
    layer = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    layer["trace.overhead_s"] = (layer["trace.run_s"]
                                 - statistics.median(s["wall"] for s in m["runs"]))
    return layer


def report_lines(name: str, m: dict) -> list:
    """Each end-to-end metric with unit, median, quartiles, tail and count."""
    lines = []
    unscaled = end_to_end(m, scaled=False)
    for metric, values in end_to_end(m).items():
        p = tail_percentile(len(values))
        tail = (f"p{p} {statistics.quantiles(values, n=100, method='inclusive')[p - 1]:.4f}"
                if p else "no tail percentile (fewer than 20 samples)")
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        raw = (f" (unscaled {statistics.median(unscaled[metric]):.4f})"
               if unit(metric) == "s" else "")
        lines.append(f"{name:17s} {metric:12s} median {statistics.median(values):.4f} "
                     f"{unit(metric)}{raw}  IQR [{q1:.4f}, {q3:.4f}]  {tail}  "
                     f"(n={len(values)})")
    rate = m["failed"] / m["attempted"] if m["attempted"] else 0.0
    lines.append(f"{name:17s} fail_rate    {rate:.4f} ({m['failed']} of "
                 f"{m['attempted']} runs and set-ups failed)")
    lines += [f"{name:17s} FAIL {p}" for p in dict.fromkeys(m["problems"])]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "thermoevo" / "__init__.py").is_file():
        print(f"error: no thermoevo source tree under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    size = "tiny" if args.smoke else "full"
    variant = args.seed % workloads.N_VARIANTS
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    print(f"# thermoevo bench: seed={args.seed} variant={variant} size={size} "
          f"nproc={nproc()} blas_threads={nproc()} "
          f"python={platform.python_version()} "
          f"numpy={importlib.metadata.version('numpy')} "
          f"scipy={importlib.metadata.version('scipy')} trace={args.trace} "
          f"probe_nominal_s={probe.NOMINAL_S}")
    work_root = root / ".bench_work" / str(os.getpid())
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            inputs = workloads.WORKLOADS[name][2](variant, size)
            ref = reference.get(name, {}).get(size, {}).get(str(variant))
            if ref is None:
                print(f"error: no reference digest for {name} {size} variant "
                      f"{variant}", file=sys.stderr)
                return 2
            m = measure(name, inputs, ref, args.seconds, bool(args.trace),
                        root, work_root / name)
            attempted += m["attempted"]
            failed += m["failed"]
            for line in report_lines(name, m):
                print(line)
            values = {k: statistics.median(v) for k, v in end_to_end(m).items()}
            if args.trace:
                values = per_layer(m)
                for metric, value in values.items():
                    print(f"{name:17s} {metric:30s} {value:.6g} {unit(metric)}")
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({f"{prefix}{k}": {"value": v, "unit": unit(k)}
                            for k, v in values.items()})
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.is_dir() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
