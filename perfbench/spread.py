"""Run one workload over several seeds, one run at a time, and report the spread.

    python3 perfbench/spread.py --workload hotkey-ladder --runs 10 --first-seed 1

For each metric it prints the median and the inter-quartile distance as
a share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound from ``BENCHMARK.json``. Runs are sequential: host
metrics measured side by side would disturb each other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import median, spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    print(f"{'metric':32s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        cell = spread(series) if len(series) >= 2 and median(series) else float("nan")
        print(f"{name:32s} {median(series):14.6g} {cell:8.4f} {bounds[name]:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
