"""Tests of the benchmark itself: its output check and its span arithmetic."""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import run
from workloads import map_workload

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    return run.Runner(map_workload(3, points=21), 3, tmp_path, perf_counter())


def _corrupt_peak(path: Path) -> None:
    """Raise the largest value of a CSV by one part in a million."""
    lines = path.read_text().splitlines()
    values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    k = 1 + int(np.argmax(values))
    head, value = lines[k].rsplit(",", 1)
    lines[k] = f"{head},{float(value) * (1.0 + 1e-6)!r}"
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_csv_value_raises_fail_ratio(runner, monkeypatch):
    runner.iterate()
    assert (runner.attempted, runner.failed) == (1, 0)

    real_check = run.check_call

    def check_after_corruption(call, out_dir, *args):
        _corrupt_peak(out_dir / call.csvs[0].name)
        return real_check(call, out_dir, *args)

    monkeypatch.setattr(run, "check_call", check_after_corruption)
    runner.iterate()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert runner.fail_ratio == 0.5


def test_self_time_subtracts_direct_children():
    trace = {
        "spans": [
            [0, -1, "cli.main", 0.0, 10.0],
            [1, 0, "config.load", 0.0, 1.0],
            [2, 0, "cli.run_experiment", 1.0, 8.0],
            [3, 2, "experiments.rabi_trace", 1.0, 7.0],
            [4, 3, "solver.evolve", 1.0, 3.0],
            [5, 3, "solver.evolve", 3.0, 6.0],
        ],
        "counts": {"model.check_density_matrix": 4},
        "bytes_written": 123,
        "overhead_s": 0.5,
    }
    m = run.layer_metrics(trace)
    assert m["cli.write_s"] == 2.0
    assert m["config.load_s"] == 1.0
    assert m["experiments.self_s"] == 1.0
    assert (m["solver.evolve_s"], m["solver.evolve_calls"]) == (5.0, 2)
    assert m["model.check_density_matrix_calls"] == 4
    assert m["cli.bytes_written"] == 123
    assert m["trace.overhead_s"] == 0.5
