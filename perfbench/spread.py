#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py run --seeds 101-110 --out perfbench/results/set1.jsonl
    python3 perfbench/spread.py summary perfbench/results/set1.jsonl perfbench/results/set2.jsonl

Run from the repository root.

`run` runs every workload of BENCHMARK.json untraced, once per seed, for
its `run_seconds`, and appends each run's detail and result lines to
`--out` (the file is started afresh).

`summary` reads such files. For every workload and end-to-end metric it
prints, per file, the median of the runs, the spread (distance between
the first and third quartile, `statistics.quantiles(values, n=4)`, as a
share of the median), and how many single runs lie outside the median by
more than the metric's bound; for each file after the first, it prints
how far its median moved against the first file's, in the metric's worse
direction.
"""

import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec, seeds, out):
    with open(out, "w") as f:
        for w in spec["workloads"]:
            for seed in seeds:
                cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or len(lines) < 2:
                    sys.exit(f"{w['name']} seed {seed}: exit {p.returncode}\n{p.stderr[-3000:]}")
                f.write(lines[-2] + "\n" + lines[-1] + "\n")
                f.flush()
                result = json.loads(lines[-1])
                values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
                print(w["name"], seed, result["correct"], result["failed"], values, flush=True)


def runs_in(path):
    """(workload, result) per run of a file written by `run`."""
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    return [(d["workload"], r) for d, r in zip(lines[0::2], lines[1::2])]


def summary(spec, paths):
    sets = [runs_in(p) for p in paths]
    for w in spec["workloads"]:
        print(f"== {w['name']}")
        for m in spec["end_to_end"]:
            first = None
            for path, runs in zip(paths, sets):
                values = [r["metrics"][m["name"]]["value"] for wl, r in runs if wl == w["name"]]
                failed = sum(r["failed"] for wl, r in runs if wl == w["name"])
                med = statistics.median(values)
                q = statistics.quantiles(values, n=4)
                outside = sum(abs(v - med) > m["bound"] * med for v in values)
                line = (f"  {m['name']:18s} {path}: median {med:.6g}  spread {(q[2] - q[0]) / med:6.1%}"
                        f"  outside ±{m['bound']:.0%}: {outside}/{len(values)}  failed {failed}")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first * (1 if m["better"] == "lower" else -1)
                    line += f"  worse than first by {worse:+.1%}"
                print(line)


def main():
    spec = load_spec()
    args = sys.argv[1:]
    if args[:1] == ["run"] and len(args) == 5 and args[1] == "--seeds" and args[3] == "--out":
        run(spec, seeds_of(args[2]), args[4])
    elif args[:1] == ["summary"] and len(args) >= 2:
        summary(spec, args[1:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
