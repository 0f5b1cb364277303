"""Smoke test for the benchmark: every workload at tiny size, untraced and
traced, must print a correct result carrying every metric BENCHMARK.json
names with its unit; the traced run's outputs must equal the untraced ones;
and a directory holding only the benchmark must make it fail cleanly.

Run from the root of a checkout: python3 perfbench/smoke.py
It is a plain script, not a pytest module, so the repository's test suite
does not pick it up. Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT = 180


def run_bench(cwd, workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT, check=False)


def check_run(spec, workload, trace):
    done = run_bench(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: not correct: {info.get('problems')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"{label}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            errors.append(f"{label}: {metric['name']} unit {got['unit']} != {metric['unit']}")
    extra = set(result["metrics"]) - {metric["name"] for metric in wanted}
    if extra:
        errors.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace and info.get("ops", 0) < 1:
        errors.append(f"{label}: no traced ops compared with untraced ones")
    return errors


def check_bare_directory(spec):
    """Only BENCHMARK.json and the benchmark's paths: must exit non-zero, no result."""
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    errors = check_bare_directory(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: done", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
