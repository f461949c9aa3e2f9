#!/usr/bin/env python3
"""A same-process A/B of query answering in two ``src`` trees.

Imports the ``mixdiag`` package of each tree under its own name (``base``
and ``change``), builds the ``sensor_queries`` and ``live_updates`` ops of
``bench/workloads.py`` against each, and times them in alternating blocks:
even blocks run the base first, odd ones the change.  A ``sensor_queries``
block is ``--ops`` queries; a ``live_updates`` block is one episode (the
workload's round), whose op is timed in its phases: the insert, the log
append, the re-inference and the two queries.  The garbage collector is off
while ops run and collects between blocks.  With ``--cold`` the bench's
``reference_work`` runs before each op, as ``bench/run.py`` does, so an op
starts with the caches that work leaves.  Every answer is checked with the
workload's oracle, outside the timed region.

Prints one JSON object: per workload, each side's median per phase and per
op, and the block ratios (the change's median op over the base's in the
same block): their median, quartiles and how many blocks the change won;
then the Python version, platform and CPU count.  Stdlib only.

    python scripts/measure_query.py BASE_SRC [--change SRC] [--blocks 40]
        [--ops 32] [--seed 5] [--cold] [--workloads sensor_queries live_updates]

``BASE_SRC`` is a ``src`` directory, say of a ``git archive`` of the parent
commit; ``--change`` defaults to this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOADS = ("sensor_queries", "live_updates")


def load_module(name: str, path: Path, package: bool = False):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(src: Path, alias: str):
    """``bench/workloads.py`` imported against the package under ``src``,
    which is imported as ``alias``: while the workloads import, ``mixdiag``
    and its modules name the aliased ones."""
    load_module(alias, src / "mixdiag" / "__init__.py", package=True)
    aliased = [name for name in sys.modules if name.split(".")[0] == alias]
    for name in aliased:
        sys.modules["mixdiag" + name[len(alias):]] = sys.modules[name]
    try:
        return load_module(f"{alias}_workloads", BENCH / "workloads.py")
    finally:
        for name in aliased:
            del sys.modules["mixdiag" + name[len(alias):]]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


class Side:
    """One tree's workload, set up, with the times of its ops by phase."""

    def __init__(self, workloads, name: str, seed: int, workdir: Path):
        self.workload = workloads.WORKLOADS[name](seed, ROOT, workdir)
        self.workload.setup()
        self.phases: dict[str, list[float]] = {}
        self.ops: list[float] = []
        self.next_op = 0

    def record(self, times: dict[str, float]) -> float:
        for phase, elapsed in times.items():
            self.phases.setdefault(phase, []).append(elapsed)
        total = sum(times.values())
        self.ops.append(total)
        return total

    def run_block(self, ops: int, before_op) -> list[float]:
        workload, totals = self.workload, []
        workload.begin_round()
        for _ in range(ops if workload.name == "sensor_queries" else workload.round_size):
            op = workload.round_ops[self.next_op % len(workload.round_ops)]
            self.next_op += 1
            before_op()
            times, answer = self.timed(op)
            if not workload.check(op, answer):
                raise AssertionError(f"{workload.name}: a wrong answer to op {self.next_op}")
            totals.append(self.record(times))
        return totals

    def timed(self, op):
        """The op's phase times and its answer, as the workload's ``run``."""
        workload = self.workload
        if workload.name == "sensor_queries":
            start = perf_counter()
            answer = workload.run(op)
            return {"query": perf_counter() - start}, answer
        batch, piece, type_query, _, snap_query, _ = op
        marks = [perf_counter()]
        graph = workload.graph.insert(batch)
        marks.append(perf_counter())
        with workload.live_path.open("a", encoding="utf-8") as f:
            f.write(piece)
        marks.append(perf_counter())
        workload.graph = graph = graph.infer()
        marks.append(perf_counter())
        types = graph.query(type_query)
        marks.append(perf_counter())
        snapshot = graph.query(snap_query)
        marks.append(perf_counter())
        phases = ("insert", "append", "infer", "type_query", "snapshot_query")
        return {p: b - a for p, a, b in zip(phases, marks, marks[1:])}, (types, snapshot)


def compare(trees: dict, name: str, args, before_op, workdir: Path) -> dict:
    sides = {
        label: Side(w, name, args.seed, workdir / f"{name}-{label}") for label, w in trees.items()
    }
    base, change = sides["base"], sides["change"]
    ratios = []
    gc.disable()
    try:
        for block in range(args.blocks):
            order = (base, change) if block % 2 == 0 else (change, base)
            medians = {}
            for side in order:
                gc.collect()
                medians[side] = statistics.median(side.run_block(args.ops, before_op))
            ratios.append(medians[change] / medians[base])
    finally:
        gc.enable()
    return {
        "ops_per_side": len(base.ops),
        "phases_s": {
            phase: {label: statistics.median(side.phases[phase]) for label, side in sides.items()}
            for phase in base.phases
        },
        "op_s": {label: statistics.median(side.ops) for label, side in sides.items()},
        "block_ratio": quartiles(ratios) | {
            "change_won": sum(r < 1 for r in ratios), "blocks": len(ratios)
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the src directory of the base tree")
    parser.add_argument("--change", type=Path, default=ROOT / "src")
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--ops", type=int, default=32, help="sensor queries per block")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--cold", action="store_true", help="run reference_work before each op")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)

    trees = {"base": load_tree(args.base, "base"), "change": load_tree(args.change, "change")}
    reference_work = load_module("bench_run", BENCH / "run.py").reference_work
    before_op = reference_work if args.cold else (lambda: None)
    with tempfile.TemporaryDirectory() as tmp:
        results = {
            name: compare(trees, name, args, before_op, Path(tmp)) for name in args.workloads
        }
    print(json.dumps({
        "base": str(args.base), "change": str(args.change), "seed": args.seed,
        "blocks": args.blocks, "cold": args.cold,
        "workloads": results,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
