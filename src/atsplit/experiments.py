"""The six spectroscopy experiments, composed from the model and solver.

Each experiment produces a SweepResult: realized grid axes plus one real
observable per grid point.  Grid points are independent solves, so the
values never depend on evaluation order; the 2D map can optionally fan
columns out over worker processes and reassembles them by index.

Steady-state experiments replace the long drive pulse of the physical
measurement with the exact steady-state solve (the pulse length in the
experiment is chosen precisely so the system reaches steady state).
Pulsed experiments (coupler spectroscopy, Rabi traces) use the fixed-step
propagator; state preparation pulses are modeled as ideal instantaneous
swaps.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .analysis import LorentzianModel, dark_state_fidelity
from .model import DecoherenceRates, ThreeLevelModel, ket_bra
from .solver import (
    ReadoutMode,
    evolve,
    max_cyclic_frequency,
    readout_signal,
    steady_states,
)

#: Fraction of the evolve step bound used by pulsed experiments.
_PULSE_STEP_FRACTION = 0.25


class Observable(Enum):
    """What the values of a sweep mean."""

    PA_SUM = "pa_sum"            # rho11 + rho22
    PB_SECOND = "pb_second"      # rho22
    FIDELITY = "fidelity"        # dark-state fidelity sqrt(<D|rho|D>)
    POPULATION1 = "population1"  # rho11


_UNIT_RANGE_LOW = {
    Observable.PA_SUM: -1e-10,
    Observable.PB_SECOND: -1e-10,
    Observable.POPULATION1: -1e-10,
    Observable.FIDELITY: 0.0,
}


@dataclass(frozen=True)
class Grid1D:
    """Uniform inclusive grid; start/stop in cyclic MHz (or us for time)."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"grid count must be >= 2, got {self.count}")
        if not self.start < self.stop:
            raise ValueError(f"grid start {self.start} must be below stop {self.stop}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class DoubletBackground:
    """Fluctuator background for doublet slices: one Lorentzian under each
    peak, centered at +-omega_c/2, sharing a width and amplitude.

    This is a phenomenological signal-level term, never part of the
    quantum model; its parameters come from the user (typically from a
    background fit to measured data).
    """

    fwhm: float
    amplitude: float
    offset: float = 0.0

    def __post_init__(self):
        if self.fwhm <= 0.0:
            raise ValueError(f"fwhm must be positive, got {self.fwhm}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")

    def __call__(self, x: np.ndarray, omega_c: float) -> np.ndarray:
        half_sq = (self.fwhm / 2.0) ** 2
        left = half_sq / ((x + omega_c / 2.0) ** 2 + half_sq)
        right = half_sq / ((x - omega_c / 2.0) ** 2 + half_sq)
        return self.offset + self.amplitude * (left + right)


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
        low = _UNIT_RANGE_LOW[self.observable]
        vmin, vmax = float(self.values.min()), float(self.values.max())
        if vmin < low or vmax > 1.0 + 1e-10:
            raise ValueError(
                f"{self.observable.value} values [{vmin:.6g}, {vmax:.6g}] leave "
                f"the allowed range [{low}, 1+1e-10]"
            )


def _pa_sum(rho_stack: np.ndarray) -> np.ndarray:
    values = rho_stack[:, 1, 1].real + rho_stack[:, 2, 2].real
    return np.maximum(values, 0.0)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def probe_spectroscopy(
    base: ThreeLevelModel,
    dp_grid: Grid1D,
    background: LorentzianModel | None = None,
) -> SweepResult:
    """Steady-state probe line scan with the coupler off.

    Sweeps the probe detuning and records the rho11 + rho22 readout,
    optionally adding a fluctuator background Lorentzian on top of the
    signal.
    """
    if base.drive.omega_c != 0.0:
        raise ValueError("probe spectroscopy requires omega_c = 0")
    dp = dp_grid.points
    rho = steady_states(dp, base.drive.delta_c, base.drive.omega_p, 0.0, base.rates)
    values = _pa_sum(rho)
    if background is not None:
        values = values + background(dp)
    return SweepResult(
        axis1=dp, values=values, observable=Observable.PA_SUM, axis1_name="delta_p_mhz"
    )


def coupler_spectroscopy(
    base: ThreeLevelModel,
    dc_grid: Grid1D,
    pulse_duration: float,
) -> SweepResult:
    """Coupler line scan: prepare |1>, pulse the coupler, read rho22.

    The preparation pulse on the 0-1 transition is modeled as an ideal
    instantaneous swap into |1><1|; the coupler pulse of the given
    duration (us) is integrated with the fixed-step propagator.
    """
    if base.drive.omega_p != 0.0:
        raise ValueError("coupler spectroscopy requires omega_p = 0 during the pulse")
    if pulse_duration < 0.0:
        raise ValueError(f"pulse_duration must be >= 0, got {pulse_duration}")
    dc = dc_grid.points
    one = ket_bra(1, 1)
    values = np.empty(dc.size)
    for k, detuning in enumerate(dc):
        model = base.with_drive(delta_p=0.0, delta_c=float(detuning), omega_p=0.0)
        dt = _pulse_step(model)
        traj = evolve(model, one, pulse_duration, dt, record_every=10**9)
        values[k] = readout_signal(traj.final_state(), ReadoutMode.PB_SECOND)
    return SweepResult(
        axis1=dc,
        values=values,
        observable=Observable.PB_SECOND,
        axis1_name="delta_c_mhz",
    )


def rabi_trace(base: ThreeLevelModel, durations: Grid1D) -> SweepResult:
    """Probe-drive Rabi oscillation: rho11 versus pulse duration (us).

    Starts from the ground state with the probe on resonance and the
    coupler off; this is the trace used to calibrate the probability
    scale of the readout.
    """
    if base.drive.omega_c != 0.0:
        raise ValueError("rabi trace requires omega_c = 0")
    if base.drive.delta_p != 0.0:
        raise ValueError("rabi trace requires delta_p = 0")
    times = durations.points
    if times[0] < 0.0:
        raise ValueError("durations must be >= 0")
    ground = ket_bra(0, 0)
    dt = _pulse_step(base)
    values = np.empty(times.size)
    for k, t in enumerate(times):
        traj = evolve(base, ground, float(t), dt, record_every=10**9)
        values[k] = max(0.0, traj.final_state()[1, 1].real)
    return SweepResult(
        axis1=times,
        values=values,
        observable=Observable.POPULATION1,
        axis1_name="duration_us",
    )


def _pulse_step(model: ThreeLevelModel) -> float:
    f_max = max_cyclic_frequency(model)
    if f_max == 0.0:
        return 1.0
    return _PULSE_STEP_FRACTION / (50.0 * f_max)


def _map_columns(args) -> np.ndarray:
    """Worker: PA_SUM block for a span of coupler-detuning columns."""
    dp, dc_block, omega_p, omega_c, rates = args
    grid_dp = np.repeat(dp, dc_block.size)
    grid_dc = np.tile(dc_block, dp.size)
    rho = steady_states(grid_dp, grid_dc, omega_p, omega_c, rates)
    return _pa_sum(rho).reshape(dp.size, dc_block.size)


def at_map(
    base: ThreeLevelModel,
    dp_grid: Grid1D,
    dc_grid: Grid1D,
    jobs: int = 1,
) -> SweepResult:
    """2D steady-state map of rho11 + rho22 over (delta_p, delta_c).

    At weak coupling the map shows the bare probe line crossed by the
    two-photon sideband along delta_p + delta_c = 0; at strong coupling
    the lines anticross into the fully separated doublet.  ``jobs``
    distributes column blocks over at most ``jobs`` processes, never more
    than there are columns or cores; values are assembled by index, so
    the output is identical for any jobs value.
    """
    if base.drive.omega_p <= 0.0 or base.drive.omega_c <= 0.0:
        raise ValueError("at_map requires both drive amplitudes > 0")
    dp, dc = dp_grid.points, dc_grid.points
    drive = (base.drive.omega_p, base.drive.omega_c, base.rates)
    jobs = max(1, min(int(jobs), dc.size, os.cpu_count() or 1))

    if jobs == 1:
        blocks = [_map_columns((dp, dc, *drive))]
    else:
        spans = np.array_split(np.arange(dc.size), min(jobs * 4, dc.size))
        tasks = [(dp, dc[span], *drive) for span in spans]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = list(pool.map(_map_columns, tasks))

    values = np.concatenate(blocks, axis=1)
    return SweepResult(
        axis1=dp,
        axis2=dc,
        values=values,
        observable=Observable.PA_SUM,
        axis1_name="delta_p_mhz",
        axis2_name="delta_c_mhz",
    )


def default_slice_grid(omega_c: float) -> Grid1D:
    """Probe grid bracketing both doublet peaks at +-omega_c/2."""
    limit = 1.5 * omega_c + 1.0
    return Grid1D(-limit, limit, 401)


def default_map_grid(omega_c: float) -> Grid1D:
    """Detuning grid for the 2D map, wide enough to show the anticrossing."""
    limit = 2.0 * omega_c + 2.0
    return Grid1D(-limit, limit, 201)


def at_slice(
    base: ThreeLevelModel,
    dp_grid: Grid1D | None,
    omega_c_list: Sequence[float],
    background: DoubletBackground | None = None,
) -> list[SweepResult]:
    """Doublet slices at zero coupler detuning, one sweep per coupler power.

    With ``dp_grid=None`` each slice uses ``default_slice_grid`` for its
    coupler strength.  The optional fluctuator background adds a small
    Lorentzian under each doublet peak.
    """
    if base.drive.delta_c != 0.0:
        raise ValueError("at_slice requires delta_c = 0")
    results = []
    for omega_c in omega_c_list:
        if omega_c <= 0.0:
            raise ValueError(f"coupler amplitudes must be > 0, got {omega_c}")
        grid = dp_grid if dp_grid is not None else default_slice_grid(omega_c)
        dp = grid.points
        rho = steady_states(dp, 0.0, base.drive.omega_p, omega_c, base.rates)
        values = _pa_sum(rho)
        if background is not None:
            values = values + background(dp, omega_c)
        results.append(
            SweepResult(
                axis1=dp,
                values=values,
                observable=Observable.PA_SUM,
                axis1_name="delta_p_mhz",
            )
        )
    return results


def fidelity_vs_coupler(
    base: ThreeLevelModel, omega_c_list: Sequence[float]
) -> SweepResult:
    """Dark-state fidelity of the steady state versus coupler power.

    Both drives on resonance; the mixing angle follows each coupler
    amplitude.  Valid only at zero detunings, where the dark state is an
    exact eigenstate.
    """
    if base.drive.delta_p != 0.0 or base.drive.delta_c != 0.0:
        raise ValueError("dark-state fidelity is defined at delta_p = delta_c = 0")
    omega_c = np.asarray(list(omega_c_list), dtype=float)
    if np.any(omega_c < 0.0) or (base.drive.omega_p == 0.0 and np.any(omega_c == 0.0)):
        raise ValueError("need omega_p^2 + omega_c^2 > 0 at every point")
    rho = steady_states(0.0, 0.0, base.drive.omega_p, omega_c, base.rates)
    values = np.empty(omega_c.size)
    for k in range(omega_c.size):
        theta = np.arctan2(base.drive.omega_p, omega_c[k])
        values[k] = dark_state_fidelity(rho[k], theta).fidelity
    return SweepResult(
        axis1=omega_c,
        values=values,
        observable=Observable.FIDELITY,
        axis1_name="omega_c_mhz",
    )


def eit_regime_scan(
    base: ThreeLevelModel, n_max: int, ratio_grid: Grid1D
) -> list[SweepResult]:
    """Fidelity-versus-drive-ratio curves with the 2-1 relaxation scaled down.

    Curve n uses gamma_21 / 2^n with everything else fixed; the ratio
    axis is omega_c / omega_p.  Successively longer |2> lifetimes open
    the population-trapping (EIT-like) window, raising the fidelity even
    at small drive ratios.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if base.drive.omega_p <= 0.0:
        raise ValueError("eit_regime_scan requires omega_p > 0")
    if base.drive.delta_p != 0.0 or base.drive.delta_c != 0.0:
        raise ValueError("dark-state fidelity is defined at delta_p = delta_c = 0")
    ratios = ratio_grid.points
    if np.any(ratios < 0.0):
        raise ValueError("drive ratios must be >= 0")
    results = []
    for n in range(n_max + 1):
        rates = DecoherenceRates(
            gamma_10=base.rates.gamma_10,
            gamma_21=base.rates.gamma_21 / 2.0**n,
            gamma_20=base.rates.gamma_20,
            phi_1=base.rates.phi_1,
            phi_2=base.rates.phi_2,
        )
        omega_c = ratios * base.drive.omega_p
        rho = steady_states(0.0, 0.0, base.drive.omega_p, omega_c, rates)
        values = np.empty(ratios.size)
        for k in range(ratios.size):
            theta = np.arctan2(base.drive.omega_p, omega_c[k])
            values[k] = dark_state_fidelity(rho[k], theta).fidelity
        results.append(
            SweepResult(
                axis1=ratios,
                values=values,
                observable=Observable.FIDELITY,
                axis1_name="omega_c_over_omega_p",
            )
        )
    return results
