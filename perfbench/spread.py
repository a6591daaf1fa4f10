"""Run one workload over several seeds and report, per metric, the median
and the quartile spread (Q3 - Q1) / median of the per-seed values, as
``statistics.quantiles(values, n=4)`` gives the quartiles.

    python3 perfbench/spread.py --workload split-components --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --json spread.json

Each seed is one run of ``perfbench/run.py`` in a process of its own.  The
spread is compared with the bound BENCHMARK.json fixes for the metric.
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


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_seeds(workload: str, seeds, seconds, trace: int) -> list[dict]:
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed} failed the gate:\n{proc.stdout}")
        results.append(result)
        print(f"  seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
    return results


def summarize(results: list[dict]) -> dict:
    out = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[metric] = {"median": median, "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        print(f"{name}:", flush=True)
        summary[name] = summarize(run_seeds(name, seed_list(args.seeds), args.seconds, args.trace))
        for metric, s in summary[name].items():
            bound = bounds.get(metric)
            mark = "" if bound is None else f"  (bound {bound}, {s['spread'] / bound:.2f} of it)"
            print(f"  {metric:44s} median {s['median']:.5g}  spread {s['spread']:.4f}{mark}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
