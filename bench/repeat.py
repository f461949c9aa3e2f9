#!/usr/bin/env python3
"""Run bench/run.py over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload sensor_queries --seeds 1-5
    python3 bench/repeat.py --seeds 1-10 --label <commit> --out bench/baseline.json
    python3 bench/repeat.py --seeds 1 --trace 1 --out .bench_out/layers.json

For every end-to-end metric it prints the median of the runs, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile distance
as a share of the median) and the metric's bound from BENCHMARK.json, and
flags a spread of a third of the bound or more.  Runs go one after another,
each waited for; ``--out`` writes the summary with the machine it ran on.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"label": args.label, "machine": machine(), "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workload or names:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in seed_list(args.seeds)]
        metrics = {}
        print(f"== {workload}: {len(runs)} runs, "
              f"{sum(r['attempted'] for r in runs)} ops, {sum(r['failed'] for r in runs)} failed")
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {name:42s} median {stats['median']:.6g} {stats['unit']}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread']:.3f}"
                  + ("" if bound is None else f"  bound {bound}") + flag)
        summary["workloads"][workload] = {
            "runs": len(runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
