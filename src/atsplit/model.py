"""Domain types and operator construction for a driven three-level transmon.

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

Conversions happen exactly once, inside ``build_hamiltonian`` and
``collapse_operators``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonPhysicalResult

TWO_PI = 2.0 * math.pi

#: Default ratio Gamma_21/Gamma_10 from the transmon transition matrix
#: elements (|1><2| dipole is sqrt(2) ~ 1.41 times the |0><1| one).
TRANSMON_RATIO_21 = 1.41


# ---------------------------------------------------------------------------
# 3x3 matrix helpers
# ---------------------------------------------------------------------------

def ket_bra(i: int, j: int) -> np.ndarray:
    """Operator |i><j| as a dense 3x3 complex matrix."""
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


#: Hermiticity and trace tolerances and eigenvalue floor of a density matrix;
#: the steady-state kernel gates on the same floor, also with ``below_eig_floor``.
_HERM_TOL = _TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10


def below_eig_floor(rho: np.ndarray) -> np.ndarray:
    """Mask of the states of an (n, 3, 3) Hermitian stack (lower triangle
    read) whose lowest eigenvalue is below ``EIG_FLOOR``, decided from the
    pivots of the unpivoted LDL^H factorization of A = rho - EIG_FLOOR * I.
    It is backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, ch. 10), so it agrees with eigvalsh to
    roundoff.  Each pivot is scaled by the positive pivots before it, so
    nothing is divided.  NaN fails; a zero pivot passes only over zeros."""
    p, q, r = (np.diagonal(rho, axis1=1, axis2=2).real - EIG_FLOOR).T
    b1, b2, e = rho[:, 1, 0], rho[:, 2, 0], rho[:, 2, 1]
    n1, n2 = abs(b1) ** 2, abs(b2) ** 2
    # d1 and t: the diagonal of p S, with S the Schur complement of A[0, 0] (S where p = 0).
    scale = np.where(p > 0.0, p, 1.0)
    d1, t = scale * q - n1, scale * r - n2
    # The last pivot times p^2 d1; at d1 = 0 it is -|p S[1, 0]|^2, and t >= 0 decides.
    d2 = np.maximum(d1, 0.0) * t - abs(scale * e - b2 * b1.conj()) ** 2
    lowest = np.minimum(np.minimum(p, d1), np.minimum(t, d2))
    return ~(lowest >= 0.0) | (p == 0.0) & (n1 + n2 > 0.0)


def reject(*gates) -> None:
    """Raise ``error(words(k))`` at the first point k where the mask of any
    ``(mask, error, words)`` gate holds, with the first gate that fails there:
    the one rule by which every per-point check names its failure."""
    k = min((int(np.argmax(mask)) for mask, _, _ in gates if mask.any()), default=None)
    if k is not None:
        _, error, words = next(gate for gate in gates if gate[0][k])
        raise error(words(k))


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate one 3x3 density matrix or an (n, 3, 3) stack of them.

    Requires finite entries, Hermiticity within ``_HERM_TOL``, trace within
    ``_TRACE_TOL`` of one, and no eigenvalue of the Hermitian part below
    ``EIG_FLOOR`` (``below_eig_floor``; the negative floor absorbs roundoff
    on pure states).  An error on a stack names the first failing state, by
    the first of these checks it fails; eigvalsh runs only on it, to word it.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or an (n, 3, 3) stack, got shape {rho.shape}")
    stack = rho.reshape(-1, 3, 3)
    adjoint = stack.conj().transpose(0, 2, 1)

    def name(k: int) -> str:
        return "density matrix" if rho.ndim == 2 else f"density matrix {k} of {len(stack)}"

    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf; such a state fails first
        defect = np.abs(stack - adjoint).max(axis=(1, 2))
        trace = np.trace(stack, axis1=1, axis2=2)
        hermitian = 0.5 * (stack + adjoint)
        reject((~np.isfinite(stack).all(axis=(1, 2)), NonPhysicalResult,
                lambda k: f"{name(k)} not finite"),
               (~(defect <= _HERM_TOL), NonPhysicalResult,
                lambda k: f"{name(k)} not Hermitian: defect {defect[k]:.3e}"),
               (~(np.abs(trace - 1.0) <= _TRACE_TOL), NonPhysicalResult,
                lambda k: f"{name(k)} trace {trace[k]:.15g} != 1"),
               (below_eig_floor(hermitian), NonPhysicalResult, lambda k: (
                   f"{name(k)} has eigenvalue {np.linalg.eigvalsh(hermitian[k])[0]:.3e}")))
    return rho


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


# ---------------------------------------------------------------------------
# Operator construction
# ---------------------------------------------------------------------------

def build_hamiltonian(drive: DriveParams) -> np.ndarray:
    """Rotating-frame Hamiltonian H/hbar in angular rad/us.

    Level |1> sits at -delta_p and |2> at -(delta_p + delta_c); the probe
    couples 0-1 and the coupler couples 1-2 with matrix elements
    Omega/2.  Hermitian by construction (real drive amplitudes).
    """
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = -TWO_PI * drive.delta_p
    h[2, 2] = -TWO_PI * (drive.delta_p + drive.delta_c)
    h[1, 0] = h[0, 1] = TWO_PI * drive.omega_p / 2.0
    h[2, 1] = h[1, 2] = TWO_PI * drive.omega_c / 2.0
    return h


def collapse_operators(rates: DecoherenceRates) -> list[np.ndarray]:
    """Five Lindblad collapse operators in 1/sqrt(us) units.

    Three relaxation channels sqrt(Gamma_ij)|j><i| and two pure-dephasing
    channels sqrt(2*phi_i)|i><i|.  The sqrt(2*phi) normalization makes the
    0-i coherence decay at (relaxation out of i)/2 + phi_i, so that
    1/T2* = Gamma_10/2 + phi_1 holds as an identity.  Zero-rate channels
    are kept as explicit zero matrices so the operator count is stable.
    """
    return [
        math.sqrt(rates.gamma_10) * ket_bra(0, 1),
        math.sqrt(rates.gamma_21) * ket_bra(1, 2),
        math.sqrt(rates.gamma_20) * ket_bra(0, 2),
        math.sqrt(2.0 * rates.phi_1) * ket_bra(1, 1),
        math.sqrt(2.0 * rates.phi_2) * ket_bra(2, 2),
    ]


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
