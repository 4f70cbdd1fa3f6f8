"""Self-test of the benchmark at smoke size (a few seconds per workload).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --smoke`` untraced and traced and checks
that the result line has the contract's keys, that the result check passed
with no failed query, that every end-to-end metric (untraced) or every
per-layer metric named in ``BENCHMARK.json`` (traced) is printed with its
unit, and that the traced layer self times plus ``session.unattributed_s``
add up to ``session.execute_s`` within 1%.  It also checks that the
benchmark refuses to run when a ``RECACHE_*`` variable is set and when the
program's sources are missing.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS  # noqa: E402

WORKLOADS = ("cold_explore", "hot_serve", "evict_churn")


def bench(script: Path, workload: str, trace: int, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=180, env=env, cwd=cwd,
    )


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def check_run(workload: str, trace: int, per_layer: dict) -> None:
    proc = bench(HERE / "run.py", workload, trace)
    label = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("run record: "))
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys {set(result)}")
    expect(result["correct"] and result["failed"] == 0, f"{label} result check: {record['result_check']} {record['errors']}")
    expect(result["attempted"] >= 1 and record["result_check"]["checked"] >= 1, f"{label} checked nothing")
    wanted = per_layer if trace else END_TO_END_UNITS
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect(got == wanted, f"{label} metrics differ: {sorted(set(got) ^ set(wanted))} or units")
    if trace:
        error = record["trace"]["sum_error"]
        expect(error <= 0.01, f"{label} layer self times miss session time by {error:.2%}")
    else:
        zero = [name for name, metric in result["metrics"].items() if not metric["value"] > 0]
        expect(not zero, f"{label} end-to-end metrics not above 0: {zero}")
    print(f"ok  {label}: {result['attempted']} queries, {record['result_check']['checked']} checked")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    expect(end_to_end == END_TO_END_UNITS, "BENCHMARK.json end_to_end differs from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, per_layer)

    env = dict(os.environ, RECACHE_EXECUTION_MODE="threads")
    proc = bench(HERE / "run.py", WORKLOADS[0], 0, env=env)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran with RECACHE_* set")
    print("ok  refuses to run with RECACHE_* set")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare / HERE.name / "run.py", WORKLOADS[0], 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program's sources")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
