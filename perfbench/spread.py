"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload modp-cold --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the distance between the first and third quartiles
as a share of the median, next to a third of the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    shares = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
        shares.append(result["failed"] / result["attempted"])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(seed, result["correct"], result["attempted"], result["failed"],
              " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
    print(f"failed shares: {sorted(set(shares))}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        third = bounds[name] / 3
        flag = "ok" if spread < third else "WIDE"
        print(f"{name:18s} median {med:10.4f}  spread {spread:6.3f}  bound/3 {third:6.3f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
