"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--seeds 1-10] [--out FILE]

Runs ``run.py --trace 0`` once per seed on every workload BENCHMARK.json
names, one run at a time, for BENCHMARK.json's ``run_seconds``, and prints
per metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to a third of the bound that BENCHMARK.json
fixes. It also makes two traced runs per workload with the first seed and
checks that every call count repeats exactly. ``--out`` writes the whole
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            ok &= result["correct"]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "tail": [line for line in runs[0]["report"] if line.startswith("latency_tail_s is")],
            "properties": [line for line in runs[0]["report"] if line.startswith("properties")],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:16s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f} (bound/3 "
                  f"{bound / 3:.4f}){flag}", flush=True)
        seed = seed_range(args.seeds)[0]
        first, second = (run_once(workload, seed, spec["run_seconds"], 1) for _ in range(2))
        calls = [
            {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
            for r in (first, second)
        ]
        repeat = calls[0] == calls[1]
        ok &= repeat and first["correct"] and second["correct"]
        print(f"  traced twice with seed {seed}: call counts repeat: {repeat}", flush=True)
        entry["per_layer"] = {k: v["value"] for k, v in first["metrics"].items()}
        entry["trace_calls_repeat"] = repeat
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
