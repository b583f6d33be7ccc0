#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread against its bounds.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads echo,poisson,crypt --runs 10

Each run uses another seed. For every end-to-end metric the script prints
the median of the runs and the distance between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json. A spread above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="echo,poisson,crypt")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--values", action="store_true", help="print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    flagged = 0
    for wl in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                print(p.stderr, file=sys.stderr)
                return 1
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
                flagged += 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl} ({args.runs} runs)")
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and not spread <= bound / 3:
                mark = "  <-- above a third of the bound"
                flagged += 1
            b = f"{bound:.2f}" if bound is not None else "  - "
            print(f"  {name:36s} median {med:14.4f}  spread {spread:7.4f}  bound {b}{mark}")
            if args.values:
                print("      " + " ".join(f"{x:.4g}" for x in vs))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
