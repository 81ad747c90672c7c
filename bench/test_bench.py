"""Smoke tests of the benchmark on the tiny variant of each workload.

Run from the root of the repository: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
EXACT_COUNTS = ("rational.realize_calls", "spatial.modes_calls", "evolution.solve_calls",
                "evolution.lu_fill", "evolution.export_bytes", "evolution.n_dof",
                "evolution.n_aux", "evolution.n_steps")
SEED = 5


@pytest.fixture
def work():
    path = ROOT / ".bench_work" / f"test-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(name: str, trace: int) -> tuple:
    """Run the benchmark's command on tiny inputs; (report lines, result)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def tiny(name: str) -> tuple:
    variant = SEED % workloads.N_VARIANTS
    return (workloads.WORKLOADS[name][2](variant, "tiny"),
            REFERENCE[name]["tiny"][str(variant)])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics(name):
    lines, result = bench(name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any("fail_rate" in line and "(0 of" in line for line in lines)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_and_exact_counts(name, work):
    _, result = bench(name, trace=1)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert result["correct"]

    inputs, reference = tiny(name)
    again = run.per_layer(run.measure(name, inputs, reference, 0, True, ROOT, work))
    for metric in EXACT_COUNTS:
        assert again[metric] == result["metrics"][metric]["value"], metric
    assert again["evolution.n_steps"] > 0 and again["evolution.solve_calls"] > 0


def test_layer_map_names_every_per_layer_metric():
    layers = json.loads((ROOT / "bench" / "layers.json").read_text(encoding="utf-8"))
    assert set(layers["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    workload_names = {w["name"] for w in BENCHMARK["workloads"]}
    for moves in layers["metrics"].values():
        for metric in ("run_s", "setup_s"):
            assert set(moves.get(metric, [])) <= workload_names


def test_nonzero_exit_counts_as_failure(work):
    inputs, reference = tiny("verify_uniform")
    # a coupled law is outside the oracle's domain: verify exits 1
    inputs["model"]["coefficients"]["Gamma"] = 0.5
    m = run.measure("verify_uniform", inputs, reference, 0, False, ROOT, work)
    assert m["failed"] == 2 and m["attempted"] == 3   # two runs fail, the set-up does not
    assert all(p.startswith("exit status 1") for p in m["problems"])
    assert "run_s" not in run.end_to_end(m)


def test_digest_mismatch_counts_as_failure(work):
    inputs, reference = tiny("api_sweep")
    wrong = json.loads(json.dumps(reference))
    key = next(iter(wrong))
    wrong[key]["total"] *= 1 + 10 * workloads.DIGEST_RTOL
    m = run.measure("api_sweep", inputs, wrong, 0, False, ROOT, work)
    assert m["failed"] == 2
    assert all(p.startswith(f"{key}: deviates") for p in m["problems"])


class _FakeRunner:
    kind, mode = "cli", "simulate"

    def __init__(self, out: Path):
        self.out = out

    artifact_hashes = run.Runner.artifact_hashes


def test_changed_artifacts_fail_the_determinism_check(work):
    out = work / "out"
    out.mkdir(parents=True)
    (out / "v.csv").write_text("t,x_0\n0,1\n1,-2\n")
    runner = _FakeRunner(out)
    checker = run.Checker(workloads.csv_digest(out))
    ok = {"status": 0}
    assert checker.problems(runner, ok) == []
    (out / "v.csv").write_text("t,x_0\n0,-1\n1,2\n")     # same digest, other bytes
    assert checker.problems(runner, ok) == ["artifacts differ from the first run's (sha256)"]
