"""Vectorized Liouvillian, steady-state solve, and a fixed-step propagator.

Density matrices are vectorized by column stacking: vec(rho)[i + 3j] =
rho[i, j], so left multiplication A.rho maps to (I kron A) and right
multiplication rho.B to (B^T kron I).  The two vectorization conventions
transpose the dissipator terms, so this choice is load bearing and fixed
here once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalResult, SingularLiouvillian, StepTooLarge
from .model import (
    TWO_PI,
    DecoherenceRates,
    ThreeLevelModel,
    build_hamiltonian,
    check_density_matrix,
    collapse_operators,
    hamiltonian_stack,
)

_I3 = np.eye(3, dtype=complex)
_I9 = np.eye(9, dtype=complex)

#: vec indices of the diagonal elements rho00, rho11, rho22 under column
#: stacking; the trace functional is the sum over these rows.
_DIAG_IDX = (0, 4, 8)

#: Condition-number threshold beyond which the trace-constrained system is
#: treated as rank deficient (non-unique steady state).
_COND_LIMIT = 1e12

#: Residual ceiling for an accepted steady-state solution.
_RESIDUAL_LIMIT = 1e-10

#: Eigenvalue floor of an accepted steady state (absorbs roundoff).
_EIG_FLOOR = -1e-10

#: Grid points per batch of the steady-state kernel.  Its work arrays take
#: about 6 KB per point, so chunking bounds them for any grid size.
_CHUNK = 1024

#: Allowed trace drift over a full time evolution.
_TRACE_DRIFT_LIMIT = 1e-9


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a 3x3 matrix into a length-9 vector."""
    return np.asarray(rho, dtype=complex).reshape(9, order="F")


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of ``vectorize``."""
    return np.asarray(v, dtype=complex).reshape((3, 3), order="F")


@dataclass(frozen=True)
class Trajectory:
    """Recorded time evolution: times in us, states as an (n, 3, 3) array."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def expectation(self, index: int) -> np.ndarray:
        """Real part of one diagonal element along the trajectory."""
        return self.states[:, index, index].real.copy()


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of 3x3 matrices, broadcast over leading stack axes."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (9, 9))


def _dissipator(rates: DecoherenceRates) -> np.ndarray:
    """Column-stacked superoperator of all five Lindblad channels, summed."""
    ops = np.array(collapse_operators(rates))
    op_dag_op = ops.conj().transpose(0, 2, 1) @ ops
    channels = (
        _kron(ops.conj(), ops)
        - 0.5 * _kron(_I3, op_dag_op)
        - 0.5 * _kron(op_dag_op.transpose(0, 2, 1), _I3)
    )
    return sum(channels)


def _kron_gathers() -> tuple[np.ndarray, np.ndarray]:
    """Flat indices that gather I kron H and H^T kron I from H.ravel() with a
    zero appended at index 9, using kron(A, B)[3p + q, 3r + s] = A[p, r] B[q, s]."""
    p, q, r, s = np.unravel_index(np.arange(81), (3, 3, 3, 3))
    return np.where(p == r, 3 * q + s, 9), np.where(q == s, 3 * r + p, 9)


_I_KRON_H, _HT_KRON_I = _kron_gathers()


def _liouvillians(h: np.ndarray, dissipator: np.ndarray) -> np.ndarray:
    """Stack of 9x9 generators for an (n, 3, 3) stack of Hamiltonians."""
    n = len(h)
    padded = np.zeros((n, 10), dtype=complex)
    padded[:, :9] = h.reshape(n, 9)
    commutator = padded[:, _I_KRON_H] - padded[:, _HT_KRON_I]
    return (-1j * commutator).reshape(n, 9, 9) + dissipator


def build_liouvillian(model: ThreeLevelModel) -> np.ndarray:
    """9x9 generator L with vec(d rho/dt) = L . vec(rho), in rad/us."""
    h = build_hamiltonian(model.drive)[np.newaxis]
    return _liouvillians(h, _dissipator(model.rates))[0]


def steady_state(model: ThreeLevelModel) -> np.ndarray:
    """Unique steady state of the master equation: ``steady_states`` for one point."""
    drive = model.drive
    return steady_states(
        drive.delta_p, drive.delta_c, drive.omega_p, drive.omega_c, model.rates
    )[0]


def steady_states(delta_p, delta_c, omega_p, omega_c, rates: DecoherenceRates) -> np.ndarray:
    """Steady states for a batch of drive settings sharing one rate set.

    Drive arguments are 1-D arrays or scalars of the ``DriveParams`` fields,
    broadcast together; returns an (n, 3, 3) stack of density matrices.
    Points are solved ``_CHUNK`` at a time, each independently, so a value
    never depends on the batch it was solved in.  One row of each
    Liouvillian is replaced by the trace constraint and the 9x9 system
    inverted directly, which is exact to machine precision; the solution
    is symmetrized, renormalized and its residual and eigenvalues checked.

    Raises SingularLiouvillian when a constrained system is rank deficient
    (steady state not unique, e.g. no dissipation at all) or its residual
    exceeds the limit, and NonPhysicalResult when a state violates the
    positivity floor; both name the grid point.
    """
    drive_arrays = [np.asarray(a, dtype=float) for a in (delta_p, delta_c, omega_p, omega_c)]
    drives = np.broadcast_arrays(*np.atleast_1d(*drive_arrays))
    dissipator = _dissipator(rates)
    rho = np.empty((drives[0].size, 3, 3), dtype=complex)
    for start in range(0, len(rho), _CHUNK):
        chunk = [d[start:start + _CHUNK] for d in drives]
        lsup = _liouvillians(hamiltonian_stack(*chunk), dissipator)
        rho[start:start + _CHUNK] = _solve_chunk(lsup, chunk, start)
    return rho


def _norm1(a: np.ndarray) -> np.ndarray:
    """Matrix 1-norm (largest absolute column sum) of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _solve_chunk(lsup: np.ndarray, drives: list[np.ndarray], offset: int) -> np.ndarray:
    """Checked steady states of one chunk (see ``steady_states``); ``drives``
    and ``offset`` name the failing grid point in errors."""

    def at(k: int) -> str:
        return f"at grid point {offset + k} (delta_p={drives[0][k]}, delta_c={drives[1][k]})"

    n = len(lsup)
    constrained = lsup.copy()
    constrained[:, 0, :] = 0.0
    constrained[:, 0, _DIAG_IDX] = 1.0

    try:
        inverse = np.linalg.inv(constrained)
    except np.linalg.LinAlgError:  # an exactly zero pivot, where slogdet's sign is 0
        k = int(np.argmin(np.abs(np.linalg.slogdet(constrained)[0])))
        raise SingularLiouvillian(f"steady state not unique {at(k)}: singular") from None
    # For 9x9 matrices kappa_2 <= 9 kappa_1, so this gate rejects every
    # system whose 2-norm condition number exceeds _COND_LIMIT.
    kappa = _norm1(constrained) * _norm1(inverse)
    rejected = ~(kappa <= _COND_LIMIT / 9.0)  # NaN counts as rejected
    if rejected.any():
        k = int(np.argmax(rejected))
        raise SingularLiouvillian(
            f"steady state not unique {at(k)}: 1-norm condition {kappa[k]:.3e}"
        )

    # Column 0 of the inverse solves for right-hand side e_0; undo column stacking.
    rho = inverse[:, :, 0].reshape(n, 3, 3).transpose(0, 2, 1)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]

    residuals = np.linalg.norm(
        np.einsum("nab,nb->na", lsup, rho.transpose(0, 2, 1).reshape(n, 9)), axis=1
    )
    if residuals.max() > _RESIDUAL_LIMIT:
        k = int(np.argmax(residuals))
        raise SingularLiouvillian(
            f"steady-state residual {residuals[k]:.3e} {at(k)} exceeds {_RESIDUAL_LIMIT}"
        )
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < _EIG_FLOOR:
        k = int(np.argmin(evals[:, 0]))
        raise NonPhysicalResult(f"steady state {at(k)} has eigenvalue {evals[k, 0]:.3e}")
    return rho


def max_cyclic_frequency(model: ThreeLevelModel) -> float:
    """Largest frequency scale of the model in cyclic MHz.

    Covers drive amplitudes, detunings, and decoherence rates (converted
    from 1/us to an equivalent cyclic value); used to bound the
    integration step.
    """
    drive = model.drive
    return max(
        drive.omega_p,
        drive.omega_c,
        abs(drive.delta_p),
        abs(drive.delta_c),
        model.rates.max_rate() / TWO_PI,
    )


def _rk4_transfer_matrix(lsup: np.ndarray, dt: float) -> np.ndarray:
    """One-step map of classic RK4 for the linear system d v/dt = L v.

    For a time-independent generator the four RK4 stages collapse to the
    degree-4 Taylor polynomial of exp(dt L); applying its matrix powers
    reproduces fixed-step RK4 exactly while allowing cheap long jumps.
    """
    a = dt * lsup
    a2 = a @ a
    return _restore_trace_rows(_I9 + a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0)


def _restore_trace_rows(transfer: np.ndarray) -> np.ndarray:
    """Project a transfer matrix back onto the trace-preserving subspace.

    The exact RK4 map preserves the trace identically (the trace
    functional annihilates the generator), so any defect in the summed
    diagonal rows is pure floating-point drift; removing it keeps the
    trace stable over tens of millions of steps.
    """
    rows = list(_DIAG_IDX)
    defect = transfer[rows, :].sum(axis=0)
    defect[rows] -= 1.0
    transfer[rows, :] -= defect / 3.0
    return transfer


def _transfer_power(transfer: np.ndarray, n: int) -> np.ndarray:
    """Binary powering with the trace projection applied after each product."""
    result = _I9.copy()
    base = transfer
    while n > 0:
        if n & 1:
            result = _restore_trace_rows(result @ base)
        n >>= 1
        if n:
            base = _restore_trace_rows(base @ base)
    return result


def evolve(
    model: ThreeLevelModel,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step 4th-order propagation of the master equation.

    ``dt`` is the maximum step; it must satisfy dt <= 1/(50 * f_max)
    where f_max is the model's largest cyclic frequency scale (raises
    StepTooLarge otherwise).  The actual step divides t_final evenly and
    is never larger than ``dt``.  States are recorded every
    ``record_every`` steps (plus the initial and final ones), each
    re-symmetrized and checked against the density-matrix invariants
    with a 1e-9 trace-drift allowance.
    """
    rho0 = check_density_matrix(rho0)
    if dt <= 0.0:
        raise StepTooLarge(f"dt must be positive, got {dt}")
    if t_final < 0.0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")

    f_max = max_cyclic_frequency(model)
    if f_max > 0.0:
        bound = 1.0 / (50.0 * f_max)
        if dt > bound * (1.0 + 1e-12):
            raise StepTooLarge(
                f"dt={dt} us exceeds 1/(50*f_max)={bound:.6g} us "
                f"for f_max={f_max:.6g} MHz"
            )

    if t_final == 0.0:
        return Trajectory(times=np.array([0.0]), states=rho0[np.newaxis].copy())

    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    dt_eff = t_final / n_steps

    lsup = build_liouvillian(model)
    step = _rk4_transfer_matrix(lsup, dt_eff)

    record_idx = list(range(0, n_steps + 1, record_every))
    if record_idx[-1] != n_steps:
        record_idx.append(n_steps)

    # Jump between recorded points with powers of the one-step map.
    segment_maps: dict[int, np.ndarray] = {}
    times = []
    states = []
    v = vectorize(rho0)
    previous = 0
    for idx in record_idx:
        span = idx - previous
        if span > 0:
            if span not in segment_maps:
                segment_maps[span] = _transfer_power(step, span)
            v = segment_maps[span] @ v
        previous = idx
        rho = unvectorize(v)
        rho = 0.5 * (rho + rho.conj().T)
        try:
            check_density_matrix(rho, trace_tol=_TRACE_DRIFT_LIMIT)
        except NonPhysicalResult as exc:
            raise NonPhysicalResult(
                f"state at t={idx * dt_eff:.6g} us left the physical set: {exc}"
            ) from exc
        times.append(idx * dt_eff)
        states.append(rho)

    return Trajectory(times=np.array(times), states=np.array(states))

