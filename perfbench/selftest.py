"""Self-test of the benchmark at a tiny job count.

    python3 perfbench/selftest.py

For every workload, runs run.py untraced and traced on a few jobs and
asserts that every metric BENCHMARK.json names is printed with its unit,
that no job outside the known defects failed, and that the benchmark
refuses to run where the galforms sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOBS = 12


class SelfTestError(Exception):
    pass


def require(condition, message):
    if not condition:
        raise SelfTestError(message)


def run(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, wanted, what):
    require(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, what)
    require(result["correct"] is True, f"{what}: a job outside the known defects failed\n{proc.stderr}")
    require(result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], what)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == wanted, f"{what}: metrics or units differ: {sorted(set(got.items()) ^ set(wanted.items()))}")
    require(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), what)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, wanted in (("0", e2e), ("1", layers)):
            proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", trace, "--max-jobs", str(JOBS))
            check_result(proc, wanted, f"{workload} --trace {trace}")
            print(f"ok  {workload} --trace {trace}")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, scratch / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(scratch, "--workload", "lie", "--seed", "1", "--seconds", "1", "--trace", "0")
        require(proc.returncode != 0 and '"metrics"' not in proc.stdout, "ran without sources")
        print("ok  refuses to run without galforms sources")
    finally:
        shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
