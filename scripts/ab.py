#!/usr/bin/env python3
"""A same-process A/B of two ``src`` trees, job by job.

Imports the ``mixdiag`` package of each tree under its own name (``base``,
``change``), with ``bench/workloads.py`` imported against each.  After one
untimed run of each side, blocks alternate sides, even blocks the base
first; the garbage collector collects before each side and is off while it
runs.  Each block checks that both sides gave the same output and gives one
ratio per step: the change's median over the base's.  Each side then runs
one block under ``tracemalloc``.  Jobs:

- ``write``: ``simulate`` and ``write_log_csv`` of the default plant, per
  ``--cycles`` count, and the characters written, then ``simulate`` of one
  cycle under the pipeline's blockage and leakage scenarios; both trees
  must write the same text and give the same faulted records.
- ``train``: ``simulate``, ``to_trace``, ``split_cycles`` and ``learn`` on
  the default plant's log, per ``--cycles`` count; both trees must learn the
  same automaton text from as many trace steps.

  Both simulate with seed 0 and ``--noise`` as the sensor noise's sigma.
- ``diagnose``: the ``diagnose`` workload's op, ``run_pipeline`` with
  ``--cycles`` training cycles, timed per scenario, a block being one op of
  each; both trees must write byte-equal artifacts.
- ``view``: a ``VirtualBinding``'s cold refresh of the seed-1 plant log, per
  ``--cycles`` count, then the refresh that reads 7 appended sensor rows and
  the bytes it decodes; both views must agree on size, lines and last_ms.
- ``sensor_queries``, ``live_updates``: the workloads' ops timed by phase, a
  block being ``--ops`` queries or one episode; the workload's oracle checks
  each answer untimed.  ``--cold`` runs ``bench/run.py``'s ``reference_work``
  before each op.

Prints one JSON object (see README.md, "Same-process A/B").  Stdlib only.

    python scripts/ab.py BASE_SRC [--change SRC] [--jobs JOB ...] [--blocks 10]
        [--seed 5] [--cycles 100 1000] [--noise 0] [--ops 32] [--cold]

``BASE_SRC`` is the ``src`` of, say, a ``git archive`` of the parent commit;
``--change`` defaults to this checkout's ``src``.
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
import tracemalloc
from functools import partial
from itertools import cycle, islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
LABELS = ("base", "change")
MIB = 2**20


def load_module(name: str, path: Path, package: bool = False):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(src: Path, alias: str):
    """The package under ``src``, imported as ``alias``, and
    ``bench/workloads.py`` imported against it: while the workloads import,
    ``mixdiag`` and its modules name the aliased ones."""
    for name in [name for name in sys.modules if name.split(".")[0] == alias]:
        del sys.modules[name]  # a tree loaded before under this alias
    package = load_module(alias, src / "mixdiag" / "__init__.py", package=True)
    names = {"mixdiag" + name[len(alias):]: name
             for name in sys.modules if name.split(".")[0] == alias}
    saved = {name: sys.modules[name] for name in names if name in sys.modules}
    sys.modules.update((name, sys.modules[aliased]) for name, aliased in names.items())
    try:
        return package, load_module(f"{alias}_workloads", BENCH / "workloads.py")
    finally:
        for name in names:
            del sys.modules[name]
        sys.modules.update(saved)


class Laps:
    """One side's samples in one block, per step: seconds, or with
    ``traced`` the MiB a step peaks at and holds above its start."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.samples: dict[str, list[float]] = {}  # seconds, or MiB when traced
        self.counts: dict[str, list[int]] = {}

    def start(self) -> None:
        self._mark()
        self.begun = self.mark

    def stop(self, step: str) -> None:
        """Record the step since the last mark and start the next one."""
        if self.traced:
            held, peak = tracemalloc.get_traced_memory()
            self.add(f"{step} peak", (peak - self.held) / MIB)
            self.add(f"{step} held", (held - self.held) / MIB)
        else:
            self.add(step, perf_counter() - self.mark)
        self._mark()

    def whole(self, step: str) -> None:
        if not self.traced:
            self.add(step, perf_counter() - self.begun)

    def _mark(self) -> None:
        if self.traced:
            tracemalloc.reset_peak()
            self.held = tracemalloc.get_traced_memory()[0]
        self.mark = perf_counter()

    def add(self, step: str, value: float, into: str = "samples") -> None:
        getattr(self, into).setdefault(step, []).append(value)


def run_side(block, laps: Laps):
    gc.collect()
    gc.disable()
    if laps.traced:
        tracemalloc.start()
    try:
        return block(laps)
    finally:
        if laps.traced:
            tracemalloc.stop()
        gc.enable()


def compare(sides: dict, blocks: int) -> dict:
    """A/B of one case: ``sides[label](laps)`` runs a block, returns its output."""
    for label in LABELS:  # untimed: a first run pays for the process's first allocations
        run_side(sides[label], Laps())
    runs: dict[str, list[Laps]] = {label: [] for label in LABELS}
    for block in range(blocks):
        outputs = {}
        for label in LABELS if block % 2 == 0 else LABELS[::-1]:
            runs[label].append(Laps())
            outputs[label] = run_side(sides[label], runs[label][-1])
        if outputs["base"] != outputs["change"]:
            raise AssertionError(f"block {block}: the two trees gave different outputs")
    traced = {label: Laps(traced=True) for label in LABELS}
    for label, laps in traced.items():
        run_side(sides[label], laps)

    def pooled(side: list[Laps], into: str = "samples") -> dict:
        return {name: statistics.median(v for laps in side for v in getattr(laps, into)[name])
                for name in getattr(side[0], into)}

    def ratio(step: str) -> dict:
        ratios = [statistics.median(change.samples[step]) / statistics.median(base.samples[step])
                  for base, change in zip(runs["base"], runs["change"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4) if blocks > 1 else ratios * 3
        return {"median": median, "q1": q1, "q3": q3,
                "change_won": sum(r < 1 for r in ratios), "blocks": blocks}

    return {
        "step_s": {label: pooled(runs[label]) for label in LABELS},
        "block_ratio": {step: ratio(step) for step in runs["base"][0].samples},
        "equal_outputs": blocks,
        "counts": {label: pooled(runs[label], "counts") for label in LABELS},
        "tracemalloc_mib": {label: pooled([laps]) for label, laps in traced.items()},
    }


def write_block(package, cycles: int, noise: float, laps: Laps) -> tuple[str, list]:
    config = package.default_config()
    laps.start()
    log = package.simulate(config, cycles, noise_sigma=noise)
    laps.stop("simulate")
    text = package.write_log_csv(log)
    laps.stop("write_log_csv")
    laps.add("csv_chars", len(text), into="counts")
    faulted = []
    for scenario in ("blockage", "leakage"):
        laps.start()
        one = package.simulate(config, 1, package.pipeline.SCENARIOS[scenario], noise_sigma=noise)
        laps.stop(f"simulate_{scenario}")
        faulted.append((one.actuator_records, one.sensor_records))
    return text, faulted


def train_block(package, cycles: int, noise: float, laps: Laps) -> tuple[str, int]:
    config = package.default_config()
    laps.start()
    log = package.simulate(config, cycles, noise_sigma=noise)
    laps.stop("simulate")
    trace = package.to_trace(log, config)
    laps.stop("to_trace")
    traces = package.split_cycles(trace, trace.initial_vector)
    laps.stop("split_cycles")
    automaton = package.learn(traces)
    laps.stop("learn")
    return package.serialize(automaton), len(trace.steps)


def cycles_cases(block, trees: dict, args, workdir: Path):
    """One case per ``--cycles`` count, running ``block`` on each tree."""
    for cycles in args.cycles:
        yield f"{cycles} cycles", {label: partial(block, package, cycles, args.noise)
                                   for label, (package, _) in trees.items()}


def diagnose_block(workload, laps: Laps) -> dict[str, dict[str, bytes]]:
    """One op per scenario; each scenario's artifacts, by name."""
    artifacts = {}
    for scenario in workload.round_ops:
        laps.start()
        result = workload.run(scenario)
        laps.stop(scenario)
        artifacts[scenario] = {name: path.read_bytes() for name, path in result.artifacts.items()}
        workload.finish_op(scenario)
    return artifacts


def diagnose_cases(trees: dict, args, workdir: Path):
    for cycles in args.cycles:
        yield f"{cycles} cycles", {
            label: partial(diagnose_block, workloads.Diagnose(
                args.seed, ROOT, workdir / f"diagnose_{cycles}_{label}", train_cycles=cycles))
            for label, (_, workloads) in trees.items()
        }


def view_block(package, path: Path, text: str, tail: str, laps: Laps) -> tuple:
    """The cold refresh, then the append's refresh and the bytes it decodes."""
    path.write_text(text, encoding="utf-8")
    binding = package.VirtualBinding(path)
    laps.start()
    binding.refresh()
    laps.stop("cold_refresh")
    with path.open("a", encoding="utf-8") as f:
        f.write(tail)
    view, decoded = sys.modules[package.VirtualBinding.__module__], []
    decode = view.decode
    view.decode = lambda data, *rest: decoded.append(len(data)) or decode(data, *rest)
    try:
        laps.start()
        binding.refresh()
        laps.stop("append_refresh")
    finally:
        view.decode = decode
    if len(binding) != 4 * binding.size:
        raise AssertionError("the view does not hold four triples per row")
    laps.add("append_decoded_bytes", sum(decoded), into="counts")
    return binding.size, binding.lines, binding.last_ms


def view_cases(trees: dict, args, workdir: Path):
    plant = trees["change"][0].plant
    for cycles in args.cycles:
        text = plant.write_log_csv(plant.simulate(plant.default_config(), cycles, (), 1))
        end = float(text.rstrip("\n").rsplit("\n", 1)[1].split(",", 1)[0])
        tail = "".join(f"{end + i / 1000:.3f},sensor,L204,{i}.5\n" for i in range(1, 8))
        yield f"{cycles} cycles", {
            label: partial(view_block, package, workdir / f"log_{cycles}_{label}.csv", text, tail)
            for label, (package, _) in trees.items()
        }


def timed_op(workload, op, laps: Laps):
    """The op's answer, as the workload's ``run`` gives it, timed by phase."""
    laps.start()
    if workload.name == "sensor_queries":
        answer = workload.run(op)
        laps.stop("query")
        return answer
    batch, piece, type_query, _, snap_query, _ = op
    graph = workload.graph.insert(batch)
    laps.stop("insert")
    with workload.live_path.open("a", encoding="utf-8") as f:
        f.write(piece)
    laps.stop("append")
    workload.graph = graph = graph.infer()
    laps.stop("infer")
    types = graph.query(type_query)
    laps.stop("type_query")
    snapshot = graph.query(snap_query)
    laps.stop("snapshot_query")
    laps.whole("op")
    return types, snapshot


def query_block(workload, ops, size: int, before_op, laps: Laps) -> list:
    workload.begin_round()
    answers = []
    for op in islice(ops, size):
        if not laps.traced:  # tracemalloc slows it twentyfold
            before_op()
        answer = timed_op(workload, op, laps)
        if not workload.check(op, answer):
            raise AssertionError(f"{workload.name}: a wrong answer")
        answers.append([[{name: str(term) for name, term in row.items()} for row in rows]
                        for rows in (answer if isinstance(answer, tuple) else (answer,))])
    return answers


def query_cases(name: str, trees: dict, args, workdir: Path):
    before_op = (load_module("bench_run", BENCH / "run.py").reference_work if args.cold
                 else lambda: None)
    sides = {}
    for label, (_, workloads) in trees.items():
        workload = workloads.WORKLOADS[name](args.seed, ROOT, workdir / f"{name}-{label}")
        workload.setup()
        size = args.ops if name == "sensor_queries" else workload.round_size
        sides[label] = partial(query_block, workload, cycle(workload.round_ops), size, before_op)
    yield "ops", sides


JOBS = {"write": partial(cycles_cases, write_block), "train": partial(cycles_cases, train_block),
        "diagnose": diagnose_cases, "view": view_cases,
        **{name: partial(query_cases, name) for name in ("sensor_queries", "live_updates")}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the src directory of the base tree")
    parser.add_argument("--change", type=Path, default=ROOT / "src")
    parser.add_argument("--jobs", nargs="+", choices=JOBS, default=list(JOBS))
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--seed", type=int, default=5, help="the workloads' seed")
    parser.add_argument("--cycles", type=int, nargs="+", default=[100, 1000],
                        help="plant cycles of the write, train, diagnose and view logs")
    parser.add_argument("--noise", type=float, default=0.0,
                        help="sensor noise sigma of the write and train logs")
    parser.add_argument("--ops", type=int, default=32, help="sensor queries per block")
    parser.add_argument("--cold", action="store_true", help="run reference_work before each op")
    args = parser.parse_args(argv)

    trees = {label: load_tree(src, label) for label, src in zip(LABELS, (args.base, args.change))}
    with tempfile.TemporaryDirectory() as tmp:
        jobs = {job: {case: compare(sides, args.blocks)
                      for case, sides in JOBS[job](trees, args, Path(tmp))}
                for job in args.jobs}
    print(json.dumps({"args": vars(args), "jobs": jobs, "python": platform.python_version(),
                      "platform": platform.platform(), "cpus": os.cpu_count()},
                     indent=2, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
