"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of an iotbed checkout.  Each workload runs at tiny size,
untraced and traced, in a fresh process; every run must pass all output
checks and print exactly the metrics BENCHMARK.json declares, with their
units.  Finally the benchmark must refuse to run, exit non-zero and print
no result in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
TIMEOUT_S = 180


def bench_command(spec: dict, workload: str, trace: int) -> list[str]:
    return [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny"]


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(bench_command(spec, workload, trace), cwd=ROOT,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"outputs failed their checks: {proc.stderr[-2000:]}")
    if not isinstance(result.get("attempted"), int) \
            or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(n for n in set(declared) & set(printed)
                       if declared[n] != printed[n])
        problems.append(f"metrics missing {missing}, undeclared {extra}, "
                        f"wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{name} value {m['value']!r}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without iotbed's sources the benchmark must fail, not report."""
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload",
             spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
    problems = check_bare_directory(spec)
    failures += bool(problems)
    print("bare directory: " + ("ok" if not problems else problems[0]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
