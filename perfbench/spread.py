"""Run-to-run spread of the end-to-end metrics across seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --runs 10 --first-seed 100 [--workload ref-toy ...]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints per
workload and metric the median of the runs and the distance between their
first and third quartiles as a share of that median, next to a third of the
metric's bound from ``BENCHMARK.json``. Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for name in args.workload:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= line["correct"] and line["failed"] == 0
            for metric, entry in line["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        for metric in spec["end_to_end"]:
            series = values.get(metric["name"], [])
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            print(f"{name:16} {metric['name']:18} median {median:12.4f} "
                  f"spread {(q3 - q1) / median:6.3f} (a third of bound {metric['bound'] / 3:.3f})",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
