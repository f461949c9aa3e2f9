#!/usr/bin/env python3
"""Run one mixdiag benchmark workload and print its metrics.

    python3 bench/run.py --workload diagnose --seed 1 --seconds 25 --trace 0

Workloads: diagnose, sensor_queries, live_updates (see bench/NOTES.md).  Run
from the repository root or anywhere else; the package is imported from
the ``src/`` next to this directory, never from an installed copy.

With ``--trace 0`` nothing is patched and the end-to-end metrics are
printed.  Times are scaled to host speed by a reference loop timed around
every op and set-up (see bench/NOTES.md); the unadjusted values are printed
too.  With ``--trace 1`` ops alternate between untraced and traced, the
per-layer metrics of the traced ops are printed (with the tracing overhead
on the median latency), and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exit status: 0 when every answer was correct, 1 when an op
failed, 2 when the repository is incomplete, 3 when set-up does not
reproduce the goldens.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# The reference loop's duration on this repository's reference host when
# it is quiet; only the scale of the adjusted times depends on it.
REFERENCE_S = 0.012
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least TAIL_BEYOND samples above
    it, and the percentile it sits at."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def reference_work() -> int:
    """Fixed pure-Python work like the program's (tuples, strings, float
    parsing, sorting, dicts) plus integer arithmetic.  Timing it before
    every op tells how fast the host runs the interpreter at that moment."""
    rows = [(i * 7919 % 1000, f"L{i % 7}", repr(i * 0.1)) for i in range(3000)]
    rows.sort()
    index: dict[str, list[float]] = {}
    for _, sensor, value in rows:
        index.setdefault(sensor, []).append(float(value))
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total + len(index)


def reference_time() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def speed_factors(refs: list[float]) -> list[float]:
    """For each interval between consecutive reference times, the factor
    that scales a time measured in it to the reference speed: REFERENCE_S
    over the mean of the six nearest reference times (three before, three
    after) without the highest and the lowest."""
    factors = []
    for i in range(len(refs) - 1):
        window = sorted(refs[max(i - 2, 0): i + 4])
        if len(window) > 2:
            window = window[1:-1]
        factors.append(REFERENCE_S / statistics.mean(window))
    return factors


def measure(workload, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS):
    """Set up ``setup_repeats`` times, then run whole rounds of ops for at
    least ``seconds``.  Returns the result object and printable notes."""
    from tracing import Tracer, metric_unit
    from workloads import SetupCheckFailed

    setup_times, setup_refs = [], []
    for _ in range(setup_repeats):
        setup_refs.append(reference_time())
        start = perf_counter()
        workload.setup()
        workload.begin_round()
        op = workload.round_ops[0]
        if not workload.check(op, workload.run(op)):
            raise SetupCheckFailed("the warm-up op answered wrongly")
        workload.finish_op(op)
        setup_times.append(perf_counter() - start)
    setup_refs.append(reference_time())

    tracer = Tracer() if trace else None
    ops: list[tuple[float, float, bool]] = []  # (latency, reference time, traced)
    traced_ops: list[int] = []
    attempted = failed = rounds = 0
    plan = workload.round_ops
    loop_start = perf_counter()
    min_rounds = 2 if trace else 1  # a traced run needs traced and untraced ops
    while rounds < min_rounds or perf_counter() - loop_start < seconds:
        workload.begin_round()
        for i in range(workload.round_size):
            op = plan[attempted % len(plan)]
            ref = reference_time()
            traced = trace and (i + rounds) % 2 == 1
            if traced:
                tracer.op = attempted
                traced_ops.append(attempted)
                tracer.install()
            start = perf_counter()
            try:
                ok = workload.check(op, workload.run(op))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            finally:
                latency = perf_counter() - start
                if traced:
                    tracer.uninstall()
            ops.append((latency, ref, traced))
            attempted += 1
            failed += not ok
            workload.finish_op(op)
        rounds += 1
    wall = perf_counter() - loop_start

    refs = [ref for _, ref, _ in ops] + [reference_time()]
    speed = speed_factors(refs)
    untraced = [lat for lat, _, traced in ops if not traced]
    adjusted = [lat * k for (lat, _, traced), k in zip(ops, speed) if not traced]
    adjusted_traced = [lat * k for (lat, _, traced), k in zip(ops, speed) if traced]
    notes = [
        f"workload {workload.name}  seed {workload.seed}  rounds {rounds}  "
        f"ops {attempted}  window {wall:.3f} s",
        f"error_rate {failed / attempted:.4f}  ({failed} failed / {attempted} attempted)",
    ]
    if trace:
        metrics = tracer.per_layer(
            {op: speed[op] for op in traced_ops},
            statistics.median(adjusted_traced),
            statistics.median(adjusted),
        )
        units = {name: metric_unit(name) for name in metrics}
        notes.append(f"{len(traced_ops)} traced ops, {len(untraced)} untraced ops")
        path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
        tracer.write(path)
        notes.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        tail_value, tail_pct = tail(adjusted)
        setup_speed = speed_factors(setup_refs)
        metrics = {
            "setup_s": statistics.median(t * k for t, k in zip(setup_times, setup_speed)),
            "latency_p50_s": statistics.median(adjusted),
            "latency_tail_s": tail_value,
            "throughput_ops_per_s": len(adjusted) / sum(adjusted),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        notes += [
            f"setup_s is the median of {setup_repeats} set-ups, each with one warm-up op",
            f"latency_tail_s is p{tail_pct:.1f} of {len(adjusted)} ops "
            f"(the highest with {TAIL_BEYOND} ops above it)",
            f"times are adjusted to host speed: reference loop median "
            f"{statistics.median(refs):.6f} s against {REFERENCE_S} s",
            f"unadjusted: setup_s {statistics.median(setup_times):.6f}  "
            f"latency_p50_s {statistics.median(untraced):.6f}  "
            f"latency_tail_s {tail(untraced)[0]:.6f}  "
            f"throughput_ops_per_s {attempted / wall:.6f} (whole window)",
        ]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("diagnose", "sensor_queries", "live_updates")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden = ROOT / "tests" / "golden" / "blockage"
    if not (SRC / "mixdiag" / "__init__.py").is_file() or not golden.is_dir():
        print(f"bench: {SRC} or {golden} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mixdiag
    import workloads

    if not Path(mixdiag.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported mixdiag from {mixdiag.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        result, notes = measure(workload, args.seconds, bool(args.trace))
    except workloads.SetupCheckFailed as exc:
        print(f"bench: set-up check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
