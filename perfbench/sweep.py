"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --workloads bulk cli-files --seeds 1-10

For each workload and metric it prints the median, the quartiles and the
spread (third minus first quartile, as a share of the median) over the
seeds, next to the metric's bound from BENCHMARK.json, and writes the same
as JSON to perfbench/_results/sweep-<workload>-trace<n>.json.  Compare two
commits by running the same sweep on each with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t = perf_counter()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            wall = perf_counter() - t
            result = json.loads(done.stdout.splitlines()[-1]) if done.returncode in (0, 1) else None
            runs.append({"seed": seed, "exit": done.returncode, "wall_s": wall, "result": result})
            print("%s seed %d: exit %d, %.1f s" % (workload, seed, done.returncode, wall), file=sys.stderr)
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stderr[-2000:])
            if result:
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        table = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / median if median else float("nan")
            table[name] = {"values": vals, "median": median, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds.get(name)}
            bound = bounds.get(name)
            note = "" if bound is None else "  bound %.2f%s" % (bound, "" if spread < bound / 3 else "  WIDE")
            print("%-16s %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                  % (workload, name, median, q1, q3, spread, note))
        out = os.path.join(BENCH_DIR, "_results", "sweep-%s-trace%d.json" % (workload, args.trace))
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seconds": args.seconds, "runs": runs, "metrics": table}, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
