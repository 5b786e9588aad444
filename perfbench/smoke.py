"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at subdivision 2 over a short horizon
(``run.py --smoke``), untraced and traced, and asserts that each run prints
a result line naming every end-to-end (untraced) or per-layer (traced)
metric with its unit and a finite value. The traced runs also pass the
interception check, or run.py exits non-zero. The correctness gate is
reported but not asserted: its limits hold only at the benchmark's own
resolutions and horizons.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_line(line, expected):
    problems = []
    if set(line) != RESULT_KEYS:
        problems.append(f"result keys {sorted(line)}")
    if not (isinstance(line.get("attempted"), int) and line["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    metrics = line.get("metrics", {})
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"{name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"{name} has unit {metrics[name].get('unit')!r}, not {unit!r}")
        elif not (isinstance(metrics[name].get("value"), (int, float))
                  and math.isfinite(metrics[name]["value"])):
            problems.append(f"{name} value {metrics[name].get('value')!r} is not finite")
    problems += [f"{name} is not named in BENCHMARK.json" for name in set(metrics) - set(expected)]
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
                gate = "-"
            else:
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                problems = check_line(line, {m["name"]: m["unit"] for m in bench[key]})
                gate = f"gate {'passed' if line['correct'] else 'failed'} " \
                       f"({line['failed']}/{line['attempted']} failed)"
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} trace {trace}: {len(bench[key])} metrics; {gate}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
