"""Domain types of a driven three-level transmon, in pure Python (no numpy).

The three lowest transmon levels |0>, |1>, |2> are driven by a weak probe
near the 0-1 transition and a strong coupler near the 1-2 transition.  In
the frame co-rotating with both drives the Hamiltonian is time independent
and fully determined by the two detunings and two Rabi amplitudes.

Unit conventions (used consistently everywhere):

* user-facing frequencies are cyclic: GHz for absolute transition
  frequencies, MHz for detunings and Rabi amplitudes (the Omega/2pi value
  an experimentalist quotes);
* decoherence rates are 1/us;
* internal operator math is angular: Hamiltonians in rad/us, collapse
  operators in 1/sqrt(us).

Conversions happen exactly once, inside ``solver.build_hamiltonian`` and
``solver.collapse_operators``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

TWO_PI = 2.0 * math.pi

#: Default ratio Gamma_21/Gamma_10 from the transmon transition matrix
#: elements (|1><2| dipole is sqrt(2) ~ 1.41 times the |0><1| one).
TRANSMON_RATIO_21 = 1.41


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceSpec:
    """Transition frequencies of the device, cyclic GHz.

    The anharmonicity is always derived from the two transition
    frequencies, never set independently.
    """

    omega01: float
    omega12: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:  # NaN fails too
            raise ValueError(
                f"anharmonicity must be positive and finite, got {self.alpha} MHz "
                f"(omega01={self.omega01} GHz, omega12={self.omega12} GHz)"
            )

    @property
    def alpha(self) -> float:
        """Anharmonicity omega01 - omega12, cyclic MHz."""
        return (self.omega01 - self.omega12) * 1e3


@dataclass(frozen=True)
class DriveParams:
    """Probe and coupler detunings and Rabi amplitudes, cyclic MHz.

    Drive phases are fixed real and non-negative; every observable this
    package computes is steady state and phase insensitive.
    """

    delta_p: float = 0.0
    delta_c: float = 0.0
    omega_p: float = 0.0
    omega_c: float = 0.0

    def __post_init__(self):
        if self.omega_p < 0.0 or self.omega_c < 0.0:
            raise ValueError(
                f"Rabi amplitudes must be >= 0, got omega_p={self.omega_p}, "
                f"omega_c={self.omega_c}"
            )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.delta_p, self.delta_c, self.omega_p, self.omega_c)


@dataclass(frozen=True)
class DecoherenceRates:
    """Downward relaxation and pure dephasing rates, 1/us.

    There are no upward rates in the model: the thermal occupation at the
    device temperature is negligible by construction, so the type cannot
    express them.
    """

    gamma_10: float
    gamma_21: float
    gamma_20: float = 0.0
    phi_1: float = 0.0
    phi_2: float = 0.0

    def __post_init__(self):
        for name in ("gamma_10", "gamma_21", "gamma_20", "phi_1", "phi_2"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"rate {name} must be finite and >= 0, got {value}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.gamma_10, self.gamma_21, self.gamma_20, self.phi_1, self.phi_2)


@dataclass(frozen=True)
class ThreeLevelModel:
    """Complete input to a master-equation solve: drives plus rates.

    Immutable value type; two models with equal fields produce
    bit-identical solver outputs.
    """

    drive: DriveParams
    rates: DecoherenceRates

    def with_drive(self, **changes) -> "ThreeLevelModel":
        """Copy of the model with some drive fields replaced."""
        return replace(self, drive=replace(self.drive, **changes))


@dataclass(frozen=True)
class Grid1D:
    """Uniform inclusive grid; start/stop in cyclic MHz (or us for time)."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if operator.index(self.count) < 2:  # TypeError unless an integer; numpy's pass
            raise ValueError(f"grid count must be >= 2, got {self.count}")
        if not self.start < self.stop:
            raise ValueError(f"grid start {self.start} must be below stop {self.stop}")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"grid span from {self.start} to {self.stop} is not finite")

    @property
    def points(self):
        import numpy as np  # here, so that importing the domain types loads no numpy
        points = np.linspace(self.start, self.stop, self.count)
        if self.start == -self.stop:  # exactly antisymmetric, so _steady_sweep mirrors it
            half = self.count // 2
            points[-half:] = -points[half - 1::-1]
            points[half:-half] = 0.0  # the middle point of an odd count
        return points


#: Each experiment's ``auto`` detuning grid as (a, b, count): the grid from
#: -(a w + b) to a w + b MHz at coupler amplitude w.  It brackets the probe
#: line, the coupler line, the map's anticrossing, or a slice's doublet
#: peaks at +-w/2; each is symmetric, so ``_steady_sweep`` solves half of it.
_AUTO_GRIDS = {"probe_spec": (0.0, 1.0, 401), "coupler_spec": (2.0, 1.0, 201),
               "at_map": (2.0, 2.0, 201), "at_slice": (1.5, 1.0, 401)}


def auto_grid(experiment: str, omega_c: float) -> Grid1D:
    """The ``auto`` detuning grid of ``experiment`` at coupler amplitude ``omega_c``."""
    a, b, count = _AUTO_GRIDS[experiment]
    return Grid1D(-(a * omega_c + b), a * omega_c + b, count)


def min_fit_points(n_peaks: int) -> int:
    """Fewest points ``fit_peaks`` takes: five per parameter (three per peak and the offset)."""
    return 5 * (3 * n_peaks + 1)


def rates_from_coherence_times(
    t1: float,
    t2_star: float,
    ratio_21: float = TRANSMON_RATIO_21,
) -> DecoherenceRates:
    """Decoherence rates from measured T1 and Ramsey T2*, both in us.

    gamma_10 = 1/T1 and phi_1 = 1/T2* - 1/(2*T1).  The 2-1 relaxation is
    ratio_21 * gamma_10 (default from the transmon matrix elements) and
    gamma_20 = 0.  The |2> dephasing rate is not independently measurable
    from these two numbers and is set equal to phi_1.

    Raises ValueError when t2_star > 2*t1, which would require negative
    pure dephasing, or when a rate is not finite (t2_star near 5e-324).
    """
    if t1 <= 0.0 or t2_star <= 0.0:
        raise ValueError(f"coherence times must be positive, got t1={t1}, t2_star={t2_star}")
    if t2_star > 2.0 * t1:
        raise ValueError(
            f"t2_star={t2_star} us exceeds 2*t1={2.0 * t1} us; "
            "pure dephasing rate would be negative"
        )
    gamma_10 = 1.0 / t1
    phi_1 = 1.0 / t2_star - 1.0 / (2.0 * t1)
    return DecoherenceRates(
        gamma_10=gamma_10,
        gamma_21=ratio_21 * gamma_10,
        gamma_20=0.0,
        phi_1=phi_1,
        phi_2=phi_1,
    )


def validate_three_level(drive: DriveParams, device: DeviceSpec) -> list[str]:
    """Warnings when drive parameters strain the three-level truncation.

    Rabi amplitudes should stay well below the anharmonicity (threshold
    alpha/5), and detunings should keep clear of the two-photon 0-2 line
    which sits at delta_p = -alpha/2 (threshold alpha/4).
    """
    warnings = []
    alpha = device.alpha
    for name, amplitude in (("coupler", drive.omega_c), ("probe", drive.omega_p)):
        if amplitude > alpha / 5.0:
            warnings.append(
                f"{name} amplitude {amplitude} MHz exceeds alpha/5 = "
                f"{alpha / 5.0:.6g} MHz; higher transmon levels may contribute"
            )
    for name, detuning in (("probe", drive.delta_p), ("coupler", drive.delta_c)):
        if abs(detuning) > alpha / 4.0:
            warnings.append(
                f"{name} detuning {detuning} MHz is within reach of the "
                f"two-photon 0-2 line at -alpha/2 = {-alpha / 2.0:.6g} MHz"
            )
    return warnings
