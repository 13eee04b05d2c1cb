"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload small-solves --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 101-110 --out f.json

Runs ``perfbench/run.py`` once per seed, one run at a time, and reports
for each ``end_to_end`` metric its median and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, against the metric's bound in ``BENCHMARK.json``.
With ``--against`` it also compares each median with the medians of an
earlier output of this script (another seed set, same code) and flags
any metric that is worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(workload: str, seeds: List[int], bench: Dict[str, Any]
           ) -> Dict[str, Any]:
    runs = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
    rows = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[metric["name"]] = {
            "median": statistics.median(values),
            "iqr_share": (q3 - q1) / statistics.median(values),
            "bound": metric["bound"],
            "values": values,
        }
    return {"seeds": seeds, "metrics": rows,
            "wall_s": [r["wall_s"] for r in runs],
            "all_correct": all(r["correct"] for r in runs)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all'")
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--out", help="write the summary JSON here")
    ap.add_argument("--against", help="an earlier --out to compare with")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
    summary: Dict[str, Any] = {}
    ok = True
    for name in names:
        res = spread(name, _seeds(args.seeds), bench)
        summary[name] = res
        ok &= res["all_correct"]
        print(f"{name}: seeds {args.seeds}, run wall "
              f"{min(res['wall_s']):.0f}-{max(res['wall_s']):.0f} s")
        for metric in bench["end_to_end"]:
            row = res["metrics"][metric["name"]]
            worse = ""
            if earlier is not None:
                before = earlier[name]["metrics"][metric["name"]]["median"]
                change = (row["median"] - before) / before
                if metric["better"] == "higher":
                    change = -change
                row["worse_than_against"] = change
                worse = f"  worse-by {change:+.3f}"
                ok &= change <= metric["bound"]
            if metric["name"] != "setup_s":
                ok &= row["iqr_share"] <= metric["bound"]
            print(f"  {metric['name']:<22} median {row['median']:<12.6g} "
                  f"iqr/median {row['iqr_share']:.3f} "
                  f"(bound {metric['bound']}){worse}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    print("within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
