"""The same-process A/B harness, ``scripts/ab.py``, runs every job."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import mixdiag

SRC = Path(__file__).resolve().parent.parent / "src"


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", SRC.parent / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_every_job_reports_a_ratio_equal_outputs_and_the_machine(capsys):
    """This checkout against itself, at the smallest sizes: a rename in the
    package or in ``bench/`` that the harness uses fails here."""
    ab = load_ab()
    argv = [str(SRC), "--change", str(SRC), "--blocks", "2", "--cycles", "1", "--ops", "2",
            "--cold"]
    assert ab.main(argv) == 0
    report = json.loads(capsys.readouterr().out)

    assert set(report["jobs"]) == set(ab.JOBS)
    for job, cases in report["jobs"].items():
        assert cases, job
        for case in cases.values():
            assert case["equal_outputs"] == 2
            assert case["block_ratio"], job
            for ratio in case["block_ratio"].values():
                assert math.isfinite(ratio["median"]) and ratio["median"] > 0, job
                assert ratio["blocks"] == 2
            assert set(case["tracemalloc_mib"]) == {"base", "change"}
    (write,) = report["jobs"]["write"].values()
    assert set(write["block_ratio"]) == {
        "simulate", "write_log_csv", "simulate_blockage", "simulate_leakage"
    }
    assert report["python"] and report["platform"] and report["cpus"] >= 1
    assert sys.modules["mixdiag"] is mixdiag  # the loader put the package back


def test_the_write_job_runs_with_sensor_noise(capsys):
    """``--noise`` reaches the simulation: noisy sensor values print longer
    than the noise-free ones, so the noisy log has more characters."""
    ab = load_ab()
    sizes = {}
    for noise in ("0", "0.05"):
        argv = [str(SRC), "--change", str(SRC), "--jobs", "write", "--blocks", "2",
                "--cycles", "1", "--noise", noise]
        assert ab.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["args"]["noise"] == float(noise)
        (case,) = report["jobs"]["write"].values()
        assert case["equal_outputs"] == 2
        sizes[noise] = case["counts"]["change"]["csv_chars"]
    assert sizes["0.05"] > sizes["0"]
