"""Record the reference output digests of every workload variant.

Run from the root of a source checkout at the commit whose outputs are the
reference::

    python3 bench/record.py

It runs each workload once per variant and size, untraced, and writes
``bench/reference.json``.  A variant whose run fails is reported and left
out, so the benchmark counts its runs as failed.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_work" / "record"
    reference = {}
    try:
        for name, (kind, _, generate) in workloads.WORKLOADS.items():
            for size in ("full", "tiny"):
                for variant in range(workloads.N_VARIANTS):
                    runner = run.Runner(root, work, name, generate(variant, size))
                    sample = runner.run(trace=False)
                    problems = run.Checker(None).problems(runner, sample)
                    if problems:
                        print(f"{name} {size} {variant}: {problems}", file=sys.stderr)
                        continue
                    digest = (sample["digest"] if kind == "api"
                              else workloads.csv_digest(runner.out))
                    reference.setdefault(name, {}).setdefault(size, {})[str(variant)] = digest
                    print(f"{name} {size} {variant}: {sample['wall']:.2f} s")
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    run.REFERENCE.write_text(dumps(reference), encoding="utf-8")
    return 0


def dumps(reference: dict) -> str:
    """JSON with each list of numbers on one line."""
    text = json.dumps(reference, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


if __name__ == "__main__":
    sys.exit(main())
