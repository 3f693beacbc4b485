#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the committed baseline.

Runs perfbench/run.py once per seed for each workload, each run in a fresh
process, and reports for every end-to-end metric the median of the per-run
values and their spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. With `--out` it also makes one traced
run per workload and writes medians, quartiles, raw values and per-layer
numbers to a JSON file (perfbench/baseline.json is one such file).

    python3 perfbench/spread.py --runs 5 --workloads rollout-arm3
    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, help="also write a baseline JSON here")
    args = parser.parse_args(argv)

    out, steady = {}, True
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + i, args.seconds, 0)
                for i in range(args.runs)]
        rows = {}
        print(f"{workload}: {args.runs} runs, {args.seconds} s each")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            # the contract exempts setup_s's spread; the others must stay
            # within their bound, and a third of it is the tuning target
            ok = spread <= m["bound"] or m["name"] == "setup_s"
            steady &= ok
            note = ("" if spread < m["bound"] / 3 else
                    "  above a third of the bound" if ok else "  OVER THE BOUND")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"], "unit": m["unit"], "values": values}
            print(f"  {m['name']:18s} median {med:10.4f} {m['unit']:3s} spread {spread:6.3f}"
                  f"  bound {m['bound']:.2f}{note}")
        out[workload] = {
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": rows,
        }
        if args.out:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            out[workload]["per_layer_seed"] = args.first_seed
            out[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps({"run_seconds": args.seconds, "workloads": out},
                                       indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
