"""The seven spectroscopy experiments, composed from the model and solver.

Each experiment produces a SweepResult: realized grid axes plus one real
observable per grid point.  Grid points are independent solves, so the
values never depend on evaluation order; every steady-state experiment
is one ``_steady_sweep``, which solves only the first half of a grid that
delta -> -delta maps onto itself and fans contiguous spans of the points
in grid order out over a worker thread per usable CPU.

Steady-state experiments replace the long drive pulse of the physical
measurement with the exact steady-state solve (the pulse length in the
experiment is chosen precisely so the system reaches steady state).
Pulsed experiments (coupler spectroscopy, Rabi traces) are one call of the
stacked exact propagator ``solver.final_states``, the grid passed as a
drive or duration array, one final state per grid point; state preparation
pulses are modeled as ideal instantaneous swaps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .analysis import dark_state_fidelity
from .errors import NonPhysicalResult
from .model import DecoherenceRates, Grid1D, ThreeLevelModel, auto_grid
# evolve is imported for bench/trace_cli.py, which spans experiments.evolve.
from .solver import evolve, final_states, ket_bra, steady_states  # noqa: F401


class Observable(Enum):
    """What the values of a sweep mean."""

    PA_SUM = "pa_sum"            # rho11 + rho22
    PB_SECOND = "pb_second"      # rho22
    FIDELITY = "fidelity"        # dark-state fidelity sqrt(<D|rho|D>)
    POPULATION1 = "population1"  # rho11


#: Diagonal levels whose populations each linear readout sums.
_READOUT_LEVELS = {
    Observable.PA_SUM: [1, 2],
    Observable.PB_SECOND: [2],
    Observable.POPULATION1: [1],
}

#: Roundoff a raw readout may show outside [0, 1].
_READOUT_SLACK = 1e-10


def readout_signal(rho: np.ndarray, observable: Observable) -> float | np.ndarray:
    """Calibrated readout of one 3x3 state (a float) or an (n, 3, 3) stack.

    The value is the summed population of the observable's levels: PA_SUM
    is rho11 + rho22 (the cavity power that does not distinguish |1> from
    |2>), PB_SECOND rho22 alone, POPULATION1 rho11.  The probability scale
    is taken as already calibrated, so these are exact linear maps of a
    state the solver has checked.  A raw value more than 1e-10 outside
    [0, 1] raises NonPhysicalResult; tiny negative roundoff is clamped to
    zero.
    """
    levels = _READOUT_LEVELS.get(observable) if isinstance(observable, Observable) else None
    if levels is None:
        raise ValueError(f"no linear readout mode for {observable!r}")
    rho = np.asarray(rho)
    values = rho[..., levels, levels].real.sum(axis=-1)
    low, high = float(values.min()), float(values.max())
    if not (low >= -_READOUT_SLACK and high <= 1.0 + _READOUT_SLACK):  # NaN fails too
        raise NonPhysicalResult(
            f"{observable.value} readout [{low:.6g}, {high:.6g}] leaves "
            f"[-{_READOUT_SLACK}, 1+{_READOUT_SLACK}]"
        )
    values = np.maximum(values, 0.0)
    return float(values) if rho.ndim == 2 else values


@dataclass(frozen=True)
class SweepResult:
    """Grid axes plus observable values for a 1D or 2D experiment."""

    axis1: np.ndarray
    values: np.ndarray
    observable: Observable
    axis1_name: str
    axis2: np.ndarray | None = None
    axis2_name: str | None = None

    def __post_init__(self):
        expected = (
            (len(self.axis1),)
            if self.axis2 is None
            else (len(self.axis1), len(self.axis2))
        )
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {expected}"
            )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def probe_spectroscopy(base: ThreeLevelModel, dp_grid: Grid1D) -> SweepResult:
    """Steady-state probe line scan with the coupler off, read as rho11 + rho22:
    the zero-coupler doublet slice ``at_slice(base, dp_grid, [0.0])[0]``.
    """
    if base.drive.omega_c != 0.0:
        raise ValueError("probe spectroscopy requires omega_c = 0")
    return at_slice(base, dp_grid, [0.0])[0]


def coupler_spectroscopy(
    base: ThreeLevelModel,
    dc_grid: Grid1D,
    pulse_duration: float,
) -> SweepResult:
    """Coupler line scan: prepare |1>, pulse the coupler, read rho22.

    The preparation pulse on the 0-1 transition is modeled as an ideal
    instantaneous swap into |1><1|; the coupler pulse of the given
    duration (us) is applied as the exact map exp(t R) of each detuning.
    """
    if base.drive.omega_p != 0.0:
        raise ValueError("coupler spectroscopy requires omega_p = 0 during the pulse")
    dc = dc_grid.points
    states = final_states(
        0.0, dc, 0.0, base.drive.omega_c, base.rates, ket_bra(1, 1), pulse_duration
    )
    return SweepResult(
        axis1=dc,
        values=readout_signal(states, Observable.PB_SECOND),
        observable=Observable.PB_SECOND,
        axis1_name="delta_c_mhz",
    )


def rabi_trace(base: ThreeLevelModel, durations: Grid1D) -> SweepResult:
    """Probe-drive Rabi oscillation: rho11 versus pulse duration (us).

    Starts from the ground state with the probe on resonance and the
    coupler off; this is the trace used to calibrate the probability
    scale of the readout.  Each duration is its own final state, the
    exact map exp(t R) applied to the ground state.
    """
    if base.drive.omega_c != 0.0:
        raise ValueError("rabi trace requires omega_c = 0")
    if base.drive.delta_p != 0.0:
        raise ValueError("rabi trace requires delta_p = 0")
    times = durations.points
    states = final_states(*base.drive.as_tuple(), base.rates, ket_bra(0, 0), times)
    return SweepResult(
        axis1=times,
        values=readout_signal(states, Observable.POPULATION1),
        observable=Observable.POPULATION1,
        axis1_name="duration_us",
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, which ``taskset`` sets)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _steady_sweep(
    observable: Observable, rates, *drives, jobs: int | None = None
) -> np.ndarray:
    """Observable values at the steady states of the broadcast drives (the
    ``DriveParams`` fields), in their broadcast shape.  ``rates`` is one
    ``DecoherenceRates``, or an array of its ``as_tuple`` rows whose leading
    axes broadcast with the drives, such as one rate set per row.

    The mirror axes are those along which the sweep has more than one point
    but the amplitudes and rate rows have one.  Where reversing them negates
    both detunings exactly, the first ceil(n/2) entries along the first are
    solved and the rest filled by reversal: the generator at -delta is S R S,
    S a diagonal of +-1, so a filled value equals its own solve bit for bit
    (Buca & Prosen, 2012), and its mirror comes first in grid order.

    The points, taken in grid (C) order, are split into at most eight
    contiguous spans, however many workers run them: a pool of one thread
    per usable CPU, at most ``jobs`` and one per span (the kernel's numpy
    calls release the GIL).  A span returns only its values: the linear
    readout, or for FIDELITY the dark-state fidelity at each point's own
    angle arctan2(omega_p, omega_c), defined only where both detunings are
    zero.  Values are joined in order, so they are identical for any worker
    count, and so is an error, which names the grid's first failing point.
    """
    drives = [np.asarray(d, dtype=float) for d in drives]
    if observable is Observable.FIDELITY and (np.any(drives[0] != 0.0) or np.any(drives[1] != 0.0)):
        raise ValueError("dark-state fidelity is defined at delta_p = delta_c = 0")
    per_point = not isinstance(rates, DecoherenceRates)
    lead = np.shape(rates)[:-1] if per_point else ()
    shape = np.broadcast_shapes(lead, *(d.shape for d in drives))
    n = int(np.prod(shape))
    if n == 0:
        return np.empty(shape)
    fixed = np.broadcast_shapes((1,) * len(shape), lead, *(d.shape for d in drives[2:]))
    axes = tuple(a for a, (m, k) in enumerate(zip(shape, fixed)) if m > 1 and k == 1)
    if axes and all(np.array_equal(np.flip(d, axes), -d)
                    for d in (np.broadcast_to(x, shape) for x in drives[:2])):
        m, before = shape[axes[0]], (slice(None),) * axes[0]
        half = [np.broadcast_to(d, shape)[(*before, slice(m - m // 2))] for d in drives[:2]]
        values = _steady_sweep(observable, rates, *half, *drives[2:], jobs=jobs)
        return np.concatenate([values, np.flip(values[(*before, slice(m // 2))], axes)], axes[0])

    def span(index: np.ndarray) -> np.ndarray:
        # Scalar drives pass as they are: steady_states broadcasts them without a copy.
        part = [d if d.ndim == 0 else np.broadcast_to(d, shape).flat[index] for d in drives]
        rows = (np.broadcast_to(rates, (*shape, 5))[np.unravel_index(index, shape)]
                if per_point else rates)
        rho = steady_states(*part, rows)
        if observable is Observable.FIDELITY:
            angles = np.broadcast_to(np.arctan2(*part[2:]), len(rho))
            return dark_state_fidelity(rho, angles).fidelity
        return readout_signal(rho, observable)

    # Imported here, so that runs without a steady-state sweep never load it.
    from concurrent.futures import ThreadPoolExecutor

    spans = np.array_split(np.arange(n), min(8, n))
    workers = max(1, min(len(spans), _usable_cpus(), n if jobs is None else int(jobs)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(span, spans))).reshape(shape)


def at_map(
    base: ThreeLevelModel,
    dp_grid: Grid1D,
    dc_grid: Grid1D,
    jobs: int | None = None,
) -> SweepResult:
    """2D steady-state map of rho11 + rho22 over (delta_p, delta_c).

    At weak coupling the map shows the bare probe line crossed by the
    two-photon sideband along delta_p + delta_c = 0; at strong coupling
    the lines anticross into the fully separated doublet.  ``_steady_sweep``
    solves it in spans of points in row order on at most ``jobs`` threads.
    """
    if base.drive.omega_p <= 0.0 or base.drive.omega_c <= 0.0:
        raise ValueError("at_map requires both drive amplitudes > 0")
    dp, dc = dp_grid.points, dc_grid.points
    values = _steady_sweep(Observable.PA_SUM, base.rates, dp[:, None], dc,
                           base.drive.omega_p, base.drive.omega_c, jobs=jobs)
    return SweepResult(axis1=dp, axis2=dc, values=values, observable=Observable.PA_SUM,
                       axis1_name="delta_p_mhz", axis2_name="delta_c_mhz")


def at_slice(
    base: ThreeLevelModel,
    dp_grid: Grid1D | None,
    omega_c_list: Sequence[float],
) -> list[SweepResult]:
    """Doublet slices at zero coupler detuning, one sweep per coupler power;
    a zero amplitude gives the bare probe line.

    With ``dp_grid=None`` each slice uses ``auto_grid("at_slice", omega_c)``
    for its coupler strength.  Every slice grid has the same count, so the
    slices are the rows of one ``_steady_sweep``.
    """
    if base.drive.delta_c != 0.0:
        raise ValueError("at_slice requires delta_c = 0")
    for omega_c in omega_c_list:
        if omega_c < 0.0:
            raise ValueError(f"coupler amplitudes must be >= 0, got {omega_c}")
    dp = np.array([(dp_grid or auto_grid("at_slice", omega_c)).points for omega_c in omega_c_list])
    values = _steady_sweep(Observable.PA_SUM, base.rates, dp, 0.0, base.drive.omega_p,
                           np.asarray(omega_c_list, dtype=float)[:, None])
    return [SweepResult(axis1=axis, values=row, observable=Observable.PA_SUM,
                        axis1_name="delta_p_mhz") for axis, row in zip(dp, values)]


def fidelity_vs_coupler(
    base: ThreeLevelModel, omega_c_list: Sequence[float]
) -> SweepResult:
    """Dark-state fidelity of the steady state versus coupler power.

    Both drives on resonance; the mixing angle follows each coupler
    amplitude.  Valid only at zero detunings, where the dark state is an
    exact eigenstate (``_steady_sweep`` refuses any other).
    """
    omega_c = np.asarray(list(omega_c_list), dtype=float)
    if np.any(omega_c < 0.0) or (base.drive.omega_p == 0.0 and np.any(omega_c == 0.0)):
        raise ValueError("need omega_p^2 + omega_c^2 > 0 at every point")
    values = _steady_sweep(Observable.FIDELITY, base.rates, base.drive.delta_p,
                           base.drive.delta_c, base.drive.omega_p, omega_c)
    return SweepResult(axis1=omega_c, values=values, observable=Observable.FIDELITY,
                       axis1_name="omega_c_mhz")


def eit_regime_scan(
    base: ThreeLevelModel, n_max: int, ratio_grid: Grid1D
) -> list[SweepResult]:
    """Fidelity-versus-drive-ratio curves with the 2-1 relaxation scaled down.

    Curve n is ``fidelity_vs_coupler`` at omega_c = ratio * omega_p with
    gamma_21 * 0.5^n (0 once it underflows), on the ratio axis; the curves
    are the rows of one ``_steady_sweep``, one rate set per row.
    Successively longer |2> lifetimes open the population-trapping
    (EIT-like) window, raising the fidelity even at small drive ratios.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if base.drive.omega_p <= 0.0:
        raise ValueError("eit_regime_scan requires omega_p > 0")
    ratios = ratio_grid.points
    if np.any(ratios < 0.0):
        raise ValueError("drive ratios must be >= 0")
    rates = np.array([replace(base.rates, gamma_21=base.rates.gamma_21 * 0.5**n).as_tuple()
                      for n in range(n_max + 1)])
    values = _steady_sweep(Observable.FIDELITY, rates[:, None], base.drive.delta_p,
                           base.drive.delta_c, base.drive.omega_p, ratios * base.drive.omega_p)
    return [SweepResult(axis1=ratios, values=row, observable=Observable.FIDELITY,
                        axis1_name="omega_c_over_omega_p") for row in values]
