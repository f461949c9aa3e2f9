#!/usr/bin/env python3
"""A same-process A/B of a bound log's view in two ``src`` trees: the cold
refresh, an append, and the memory the view holds.

Imports the ``mixdiag`` package of each tree under its own name (``base``
and ``change``), as ``scripts/measure_query.py`` does.  For seed-1 plant
logs of 1, 100 and 1,000 cycles (``--cycles``), each block runs both trees
in turn, even blocks the base first and odd ones the change: a tree writes
the log, times a cold ``VirtualBinding.refresh``, then appends 7 sensor rows
and times the refresh that reads them, counting the bytes given to
``decode`` in the module that defines ``VirtualBinding``.  A block's ratio
is the change's time over the base's.  A separate run of each tree under
``tracemalloc`` gives the memory the view holds after the cold refresh and
the peak during it, both in MiB.

Prints one JSON object: per log size, each tree's median times, decoded
bytes and memory, and the block ratios of the cold and the append refresh
(their median, quartiles and how many blocks the change won); then the
Python version, platform and CPU count.  Stdlib only.

    python scripts/measure_view.py BASE_SRC [--change SRC] [--blocks 5]
        [--cycles 1 100 1000]

``BASE_SRC`` is a ``src`` directory, say of a ``git archive`` of the parent
commit; ``--change`` defaults to this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from measure_query import load_module, quartiles  # noqa: E402

APPENDED_ROWS = 7
MIB = 1024 * 1024


def appended_rows(text: str) -> str:
    """Seven sensor rows timed 1 ms apart after the log's last record."""
    end = float(text.rstrip("\n").rsplit("\n", 1)[1].split(",", 1)[0])
    return "".join(
        f"{end + i / 1000:.3f},sensor,L204,{i}.5\n" for i in range(1, APPENDED_ROWS + 1)
    )


def timed_refresh(binding) -> float:
    start = time.perf_counter()
    binding.refresh()
    return time.perf_counter() - start


def one_repeat(package, path: Path, text: str, tail: str) -> dict:
    """The cold refresh, then the 7-row append's refresh and decoded bytes."""
    gc.collect()
    path.write_text(text, encoding="utf-8")
    binding = package.VirtualBinding(path)
    cold = timed_refresh(binding)
    with path.open("a", encoding="utf-8") as f:
        f.write(tail)
    view = sys.modules[package.VirtualBinding.__module__]
    decoded = []
    decode = view.decode

    def counting(data, *rest):
        decoded.append(len(data))
        return decode(data, *rest)

    view.decode = counting
    try:
        append = timed_refresh(binding)
    finally:
        view.decode = decode
    if len(binding) != 4 * binding.size:
        raise AssertionError("the view does not hold four triples per row")
    return {"cold_refresh_s": cold, "append_refresh_s": append,
            "append_decoded_bytes": sum(decoded)}


def memory(package, path: Path, text: str) -> dict:
    """MiB the view holds after a cold refresh, and the peak during it,
    over what was allocated before it."""
    gc.collect()
    path.write_text(text, encoding="utf-8")
    binding = package.VirtualBinding(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        binding.refresh()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"sensor_rows": binding.size, "held_mib": (held - base) / MIB,
            "peak_mib": (peak - base) / MIB}


def measure(trees: dict, cycles: int, blocks: int, workdir: Path) -> dict:
    plant = sys.modules[f"{trees['change'].__name__}.plant"]
    text = plant.write_log_csv(plant.simulate(plant.default_config(), cycles, (), 1))
    tail = appended_rows(text)
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for block in range(blocks):
        for label in sorted(trees, reverse=block % 2 == 1):  # base first in even blocks
            path = workdir / f"log_{cycles}_{label}.csv"
            runs[label].append(one_repeat(trees[label], path, text, tail))
    result: dict = {
        "log_bytes": len(text.encode("utf-8")),
        "appended_bytes": len(tail.encode("utf-8")),
    }
    for label, package in trees.items():
        side = {name: statistics.median(run[name] for run in runs[label]) for name in runs[label][0]}
        result[label] = side | memory(package, workdir / f"log_{cycles}_{label}.csv", text)
    for name in ("cold_refresh_s", "append_refresh_s"):
        ratios = [c[name] / b[name] for b, c in zip(runs["base"], runs["change"])]
        result[f"{name}_block_ratio"] = quartiles(ratios) | {
            "change_won": sum(r < 1 for r in ratios), "blocks": len(ratios)
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the src directory of the base tree")
    parser.add_argument("--change", type=Path, default=ROOT / "src")
    parser.add_argument("--blocks", type=int, default=5)
    parser.add_argument("--cycles", type=int, nargs="+", default=[1, 100, 1000])
    args = parser.parse_args(argv)
    trees = {
        label: load_module(label, src / "mixdiag" / "__init__.py", package=True)
        for label, src in (("base", args.base), ("change", args.change))
    }
    with tempfile.TemporaryDirectory() as tmp:
        logs = {str(c): measure(trees, c, args.blocks, Path(tmp)) for c in args.cycles}
    print(json.dumps({
        "base": str(args.base), "change": str(args.change), "blocks": args.blocks,
        "logs": logs,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
