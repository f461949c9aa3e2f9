"""Self-tests for the benchmark: run with ``python -m pytest bench``.

They use tiny workload sizes and zero-second windows, so each harness run
is one round of ops after a single set-up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from mixdiag.terms import Literal, iri  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "diagnose": dict(train_cycles=2),
    "sensor_queries": dict(n_queries=3),
    "live_updates": dict(steps=2, chain=3, per_class=1, per_step=1, align_every=1,
                         slice_samples=1),
}


def tiny(name, seed, tmp_path, cls=None):
    cls = cls or workloads.WORKLOADS[name]
    return cls(seed, ROOT, tmp_path / f"{name}-{seed}", **TINY[name])


def expected_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(name, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, notes = run.measure(tiny(name, 1, tmp_path), 0, trace, setup_repeats=1)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {key: m["unit"] for key, m in result["metrics"].items()}
        assert units == expected_units(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_virtual_scans_are_counted_per_op(tmp_path):
    per_op = {}
    for name in ("diagnose", "sensor_queries"):
        result, _ = run.measure(tiny(name, 1, tmp_path), 0, True, setup_repeats=1)
        per_op[name] = result["metrics"]["kg.virtual.scans_per_op"]["value"]
    assert per_op["diagnose"] == 0
    assert per_op["sensor_queries"] > 0


def corrupt_diagnose(result):
    report = result.artifacts["report.txt"]
    report.write_text(report.read_text().replace("[PASS] CQ1", "[FAIL] CQ1"))
    return result


def corrupt_snapshot(rows):
    first = rows[0]
    return [{**first, "v": Literal.double(float(first["v"].lexical) + 1.0)}] + rows[1:]


def corrupt_types(answer):
    type_rows, snapshot_rows = answer
    return type_rows + [{"x": iri("ex:intruder")}], snapshot_rows


@pytest.mark.parametrize(
    "name, corrupt",
    [("diagnose", corrupt_diagnose), ("sensor_queries", corrupt_snapshot),
     ("live_updates", corrupt_types)],
)
def test_a_corrupted_answer_is_a_failed_op(name, corrupt, tmp_path):
    base = workloads.WORKLOADS[name]

    class Corrupted(base):
        calls = 0

        def run(self, op):
            answer = super().run(op)
            Corrupted.calls += 1
            return answer if Corrupted.calls == 1 else corrupt(answer)  # warm-up stays honest

    result, _ = run.measure(tiny(name, 1, tmp_path, Corrupted), 0, False, setup_repeats=1)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_come_from_the_seed_alone(name, tmp_path):
    first, again, other = (tiny(name, seed, tmp_path / str(i))
                           for i, seed in enumerate((7, 7, 8)))
    for w in (first, again, other):
        w.setup()
    assert first.round_ops == again.round_ops
    assert first.sizes() == other.sizes()
    assert first.round_size == other.round_size
    assert len(first.round_ops) == len(other.round_ops)
    if name != "diagnose":  # diagnose only rotates three scenarios
        assert first.round_ops != other.round_ops


def test_default_sizes_do_not_depend_on_the_seed():
    a = workloads.LiveUpdates(1, ROOT, ROOT / "unused")
    b = workloads.LiveUpdates(2, ROOT, ROOT / "unused")
    assert a.sizes() == b.sizes()
    assert workloads.Diagnose(1, ROOT, ROOT).sizes() == workloads.Diagnose(2, ROOT, ROOT).sizes()


def test_tail_has_ten_samples_above_it():
    value, percentile = run.tail([float(x) for x in range(1, 31)])
    assert value == 20.0
    assert percentile == pytest.approx(100 * 20 / 30)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def test_cli_prints_the_contract_line():
    proc = cli(ROOT, "--workload", "sensor_queries", "--seed", "3", "--seconds", "0",
               "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected_units("end_to_end")


def copy_checkout(dest: Path, with_program: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests" / "golden", dest / "tests" / "golden")


def test_cli_fails_without_the_program(tmp_path):
    copy_checkout(tmp_path, with_program=False)
    proc = cli(tmp_path, "--workload", "diagnose", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert last_json(proc.stdout) is None


def test_cli_fails_when_setup_misses_the_goldens(tmp_path):
    copy_checkout(tmp_path, with_program=True)
    report = tmp_path / "tests" / "golden" / "blockage" / "report.txt"
    report.write_text(report.read_text() + "tampered\n")
    proc = cli(tmp_path, "--workload", "sensor_queries", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode == 3
    assert last_json(proc.stdout) is None
