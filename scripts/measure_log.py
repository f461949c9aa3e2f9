#!/usr/bin/env python3
"""A same-process A/B of the plant log's simulation and CSV writing in two
``src`` trees.

Imports the ``mixdiag`` package of each tree under its own name (``base``
and ``change``) and, for each ``--cycles`` count, times ``simulate`` of the
default plant and ``write_log_csv`` of its log in alternating blocks: even
blocks run the base first, odd ones the change.  The garbage collector is
off while a side runs and collects between sides.  Each block checks that
the two trees wrote the same text.  Then each side runs once more under
``tracemalloc`` for the peak of ``simulate`` and the peak that
``write_log_csv`` allocates above its input.

Prints one JSON object: per cycle count, the text's length, each side's
median time per step, the block ratios (the change's time over the base's
in the same block): their median, quartiles and how many blocks the change
won, and each side's ``tracemalloc`` peaks; then the Python version,
platform and CPU count.  Stdlib only.

    python scripts/measure_log.py BASE_SRC [--change SRC] [--blocks 10]
        [--cycles 100 1000]

``BASE_SRC`` is a ``src`` directory, say of a ``git archive`` of the parent
commit; ``--change`` defaults to this checkout's ``src``.  Two processes of
one tree can differ by more than a change does on a host whose speed
drifts, so only these same-process pairs bound one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from measure_query import load_module, quartiles  # noqa: E402

STEPS = ("simulate", "write_log_csv")


def load_plant(src: Path, alias: str):
    """The ``plant`` module of the package under ``src``, imported as
    ``alias``."""
    return load_module(alias, src / "mixdiag" / "__init__.py", package=True).plant


def run(plant, cycles: int) -> tuple[dict[str, float], str]:
    """One side's step times and the text it wrote."""
    start = perf_counter()
    log = plant.simulate(plant.default_config(), cycles)
    simulated = perf_counter()
    text = plant.write_log_csv(log)
    return {"simulate": simulated - start, "write_log_csv": perf_counter() - simulated}, text


def peaks(plant, cycles: int) -> dict[str, float]:
    """The ``tracemalloc`` peak of each step in MiB, the writer's above the
    log it reads."""
    gc.collect()
    tracemalloc.start()
    try:
        log = plant.simulate(plant.default_config(), cycles)
        simulate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        plant.write_log_csv(log)
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return {"simulate": simulate_peak / 2**20, "write_log_csv": write_peak / 2**20}


def compare(plants: dict, cycles: int, blocks: int) -> dict:
    times = {label: {step: [] for step in STEPS} for label in plants}
    block_ratios = {step: [] for step in STEPS}
    length = None
    for block in range(blocks):
        order = ("base", "change") if block % 2 == 0 else ("change", "base")
        texts, block_times = {}, {}
        for label in order:
            gc.collect()
            gc.disable()
            try:
                block_times[label], texts[label] = run(plants[label], cycles)
            finally:
                gc.enable()
            for step in STEPS:
                times[label][step].append(block_times[label][step])
        if texts["base"] != texts["change"]:
            raise AssertionError(f"{cycles} cycles: the two trees wrote different logs")
        length = len(texts["base"])
        del texts
        for step in STEPS:
            block_ratios[step].append(block_times["change"][step] / block_times["base"][step])
    return {
        "text_chars": length,
        "step_s": {
            step: {label: statistics.median(times[label][step]) for label in plants}
            for step in STEPS
        },
        "block_ratio": {
            step: quartiles(values) | {"change_won": sum(r < 1 for r in values), "blocks": blocks}
            for step, values in block_ratios.items()
        },
        "tracemalloc_peak_mib": {label: peaks(plant, cycles) for label, plant in plants.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the src directory of the base tree")
    parser.add_argument("--change", type=Path, default=ROOT / "src")
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--cycles", type=int, nargs="+", default=[100, 1000])
    args = parser.parse_args(argv)

    plants = {"base": load_plant(args.base, "base"), "change": load_plant(args.change, "change")}
    results = {str(cycles): compare(plants, cycles, args.blocks) for cycles in args.cycles}
    print(json.dumps({
        "base": str(args.base), "change": str(args.change), "blocks": args.blocks,
        "cycles": results,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
