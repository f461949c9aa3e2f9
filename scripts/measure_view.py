#!/usr/bin/env python3
"""Measure a bound log's view: the cold refresh, its memory, and an append.

For seed-1 plant logs of 1, 100 and 1,000 cycles (``--cycles``), each
repeat writes the log, times a cold ``VirtualBinding.refresh``, then appends
7 sensor rows and times the refresh that reads them, counting the bytes
``kg.decode`` was given.  A separate run under ``tracemalloc`` gives the
memory the view holds after the cold refresh and the peak during it, both
in MiB.  Prints one JSON object: the median of ``--repeats`` runs per log
size, and the Python version, platform and CPU count.  Stdlib only.

    python scripts/measure_view.py [--repeats 3] [--cycles 1 100 1000]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mixdiag import kg
from mixdiag.plant import default_config, simulate, write_log_csv

APPENDED_ROWS = 7
MIB = 1024 * 1024


def appended_rows(text: str) -> str:
    """Seven sensor rows timed 1 ms apart after the log's last record."""
    end = float(text.rstrip("\n").rsplit("\n", 1)[1].split(",", 1)[0])
    return "".join(
        f"{end + i / 1000:.3f},sensor,L204,{i}.5\n" for i in range(1, APPENDED_ROWS + 1)
    )


def timed_refresh(binding: kg.VirtualBinding) -> float:
    start = time.perf_counter()
    binding.refresh()
    return time.perf_counter() - start


def one_repeat(path: Path, text: str, tail: str) -> dict:
    """The cold refresh, then the 7-row append's refresh and decoded bytes."""
    path.write_text(text, encoding="utf-8")
    binding = kg.VirtualBinding(path)
    cold = timed_refresh(binding)
    with path.open("a", encoding="utf-8") as f:
        f.write(tail)
    decoded = []
    decode = kg.decode

    def counting(data, *rest):
        decoded.append(len(data))
        return decode(data, *rest)

    kg.decode = counting
    try:
        append = timed_refresh(binding)
    finally:
        kg.decode = decode
    if len(binding) != 4 * binding.size:
        raise AssertionError("the view does not hold four triples per row")
    return {"cold_refresh_s": cold, "append_refresh_s": append,
            "append_decoded_bytes": sum(decoded)}


def memory(path: Path, text: str) -> dict:
    """MiB the view holds after a cold refresh, and the peak during it,
    over what was allocated before it."""
    path.write_text(text, encoding="utf-8")
    binding = kg.VirtualBinding(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        binding.refresh()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"sensor_rows": binding.size, "held_mib": (held - base) / MIB,
            "peak_mib": (peak - base) / MIB}


def measure(cycles: int, repeats: int, workdir: Path) -> dict:
    text = write_log_csv(simulate(default_config(), cycles, (), 1))
    tail = appended_rows(text)
    path = workdir / f"log_{cycles}.csv"
    runs = [one_repeat(path, text, tail) for _ in range(repeats)]
    result = {
        "log_bytes": len(text.encode("utf-8")),
        "appended_bytes": len(tail.encode("utf-8")),
    }
    for name in runs[0]:
        result[name] = statistics.median(run[name] for run in runs)
    result.update(memory(path, text))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--cycles", type=int, nargs="+", default=[1, 100, 1000])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        logs = {str(c): measure(c, args.repeats, Path(tmp)) for c in args.cycles}
    print(json.dumps({
        "repeats": args.repeats,
        "logs": logs,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
