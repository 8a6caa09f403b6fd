#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke.py

Run from the repository root. For every workload in BENCHMARK.json it runs
one short end-to-end run and two short traced runs at the same seed, then
checks that:

- the last output line is a result object with exactly the keys
  correct/attempted/failed/metrics, every request passed its known-answer
  gate (correct, failed == 0, attempted >= 1);
- every end-to-end (untraced) or per-layer (traced) metric named in
  BENCHMARK.json is printed, with the unit BENCHMARK.json gives it, and
  nothing else;
- the deterministic per-layer counts repeat exactly across the two traced
  runs.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

DETERMINISTIC = ["elab.obligations", "solver.goals", "solver.fm_combinations",
                 "eval.ops", "eval.checks_executed"]
SEED = 7
SECONDS = 1


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(SECONDS), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {p.returncode}\n{p.stderr[-3000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload} trace={trace}: keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        sys.exit(f"FAIL {workload} trace={trace}: known-answer gate\n{p.stderr[-3000:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.exit(f"FAIL {workload} trace={trace}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            sys.exit(f"FAIL {workload} trace={trace}: {name} = {m['value']!r}")
    print(f"ok   {workload} trace={trace}: {result['attempted']} checked", flush=True)
    return result["metrics"]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        run(spec, name, 0)
        first = run(spec, name, 1)
        second = run(spec, name, 1)
        for m in DETERMINISTIC:
            if first[m]["value"] != second[m]["value"]:
                sys.exit(f"FAIL {name}: {m} {first[m]['value']} != {second[m]['value']}")
        print(f"ok   {name}: deterministic counts repeat", flush=True)
    print("smoke: all checks passed")


if __name__ == "__main__":
    if not os.path.exists("BENCHMARK.json"):
        sys.exit("run from the repository root")
    main()
