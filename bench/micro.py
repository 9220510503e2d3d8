"""In-process microbenchmarks of single layers, after warm-up.

Usage::

    PYTHONPATH=src python3 bench/micro.py CONFIG

Prints one JSON object of medians. CONFIG is the workload's generated
config, used for ``config.load_ms``. Each figure is the median over
``REPEATS`` timed batches; one call of each function runs untimed first.
"""

from __future__ import annotations

import json
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from atsplit import (
    DriveParams,
    Grid1D,
    ThreeLevelModel,
    at_map,
    at_slice,
    build_liouvillian,
    config,
    dark_state_fidelity,
    evolve,
    fit_peaks,
    ket_bra,
    rates_from_coherence_times,
    steady_state,
)

REPEATS = 5


def per_call(fn, calls: int, scale: float) -> float:
    """Median over REPEATS batches of the time per call, times ``scale``."""
    fn()
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return statistics.median(times) * scale


def main(config_path: str) -> dict:
    # Fixed inputs at the published parameters (T1 39 us, T2* 51 us, probe
    # 0.186 MHz), so the figures do not depend on the workload seed.
    rates = rates_from_coherence_times(39.0, 51.0)
    probe = ThreeLevelModel(DriveParams(omega_p=0.186, omega_c=2.82, delta_p=0.3), rates)
    rabi = ThreeLevelModel(DriveParams(omega_p=0.186), rates)
    ground = ket_bra(0, 0)
    dt = 0.25 / (50.0 * 0.186)  # the step rabi_trace uses
    rho = steady_state(probe.with_drive(delta_p=0.0, omega_c=11.2))
    theta = float(np.arctan2(0.186, 11.2))
    doublet = at_slice(probe.with_drive(delta_p=0.0, omega_c=0.0), None, [1.41])[0]
    points = np.column_stack([doublet.axis1, doublet.values])
    if not fit_peaks(points, 2).converged:
        raise SystemExit("fit_peaks microbenchmark: the 1.41 MHz doublet fit did not converge")
    map_model = probe.with_drive(delta_p=0.0)
    grid = Grid1D(-7.64, 7.64, 201)  # default_map_grid(2.82)

    results = {
        "solver.build_liouvillian_us": per_call(lambda: build_liouvillian(probe), 200, 1e6),
        "solver.steady_state_us": per_call(lambda: steady_state(probe), 100, 1e6),
        "solver.evolve_ms": per_call(lambda: evolve(rabi, ground, 20.0, dt, 10**9), 10, 1e3),
        "analysis.fit_peaks_ms": per_call(lambda: fit_peaks(points, 2), 3, 1e3),
        "analysis.dark_state_fidelity_us": per_call(
            lambda: dark_state_fidelity(rho, theta), 500, 1e6
        ),
        "config.load_ms": per_call(lambda: config.load(Path(config_path)), 10, 1e3),
    }
    tracemalloc.start()
    at_map(map_model, grid, grid, jobs=1)  # doubles as the warm-up
    results["experiments.at_map_serial_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    times = []
    for _ in range(3):  # each call takes about a second
        start = perf_counter()
        at_map(map_model, grid, grid, jobs=1)
        times.append(perf_counter() - start)
    results["experiments.at_map_serial_s"] = statistics.median(times)
    return results


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
