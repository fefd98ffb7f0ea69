"""Smoke test of the benchmark itself.

Runs every workload named in BENCHMARK.json at the tiny `--smoke` size, once
untraced and once traced, and checks that the last output line is the result
object, that the in-bench correctness checks passed, and that every metric
BENCHMARK.json names is emitted with its unit and a finite value (and no
other metric).

Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import math
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            argv = spec["command"] + [
                "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                "--trace", trace, "--smoke",
            ]
            run = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            where = f"{workload['name']} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{where}: exit code {run.returncode}\n{run.stderr}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: correctness checks failed\n{run.stderr}")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append(f"{where}: attempted = {result.get('attempted')}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            emitted = result.get("metrics", {})
            for name, unit in expected.items():
                if name not in emitted:
                    problems.append(f"{where}: {name} missing")
                    continue
                value = emitted[name].get("value")
                if emitted[name].get("unit") != unit:
                    problems.append(f"{where}: {name} unit {emitted[name].get('unit')} != {unit}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} value {value}")
            for name in sorted(set(emitted) - set(expected)):
                problems.append(f"{where}: unexpected metric {name}")
            print(f"ok: {where}: {len(emitted)} metrics")
    for p in problems:
        print(f"FAIL: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
