"""Vectorized Liouvillian, steady-state solve, and a fixed-step propagator.

Density matrices are vectorized by column stacking: vec(rho)[i + 3j] =
rho[i, j], so left multiplication A.rho maps to (I kron A) and right
multiplication rho.B to (B^T kron I).  The two vectorization conventions
transpose the dissipator terms, so this choice is load bearing and fixed
here once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NonPhysicalResult, SingularLiouvillian, StepTooLarge
from .model import (
    TWO_PI,
    DecoherenceRates,
    ThreeLevelModel,
    check_density_matrix,
    collapse_operators,
    hamiltonian_stack,
)

_I3 = np.eye(3, dtype=complex)
_I9 = np.eye(9, dtype=complex)

#: vec indices 0, 4, 8 of rho00, rho11, rho22 under column stacking (a slice, so
#: indexing gives views that update in place); the trace functional sums these rows.
_DIAG_IDX = slice(0, 9, 4)

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
    return _generators([model])[0]


def steady_state(model: ThreeLevelModel) -> np.ndarray:
    """Unique steady state of the master equation: ``steady_states`` for one point."""
    d = model.drive
    return steady_states(d.delta_p, d.delta_c, d.omega_p, d.omega_c, model.rates)[0]


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


def _rk4_transfer_matrix(lsup: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """One-step classic RK4 maps for d v/dt = L v, one step dt[k] per generator.

    For a time-independent generator the four RK4 stages collapse to the
    degree-4 Taylor polynomial of exp(dt L); applying its matrix powers
    reproduces fixed-step RK4 exactly while allowing cheap long jumps.
    """
    a = dt[:, None, None] * lsup
    a2 = a @ a
    return _restore_trace_rows(_I9 + a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0)


def _restore_trace_rows(transfer: np.ndarray) -> np.ndarray:
    """Project a stack of transfer matrices onto the trace-preserving subspace.

    The exact RK4 map preserves the trace identically (the trace
    functional annihilates the generator), so any defect in the summed
    diagonal rows is pure floating-point drift; removing it keeps the
    trace stable over tens of millions of steps.
    """
    defect = transfer[:, _DIAG_IDX, :].sum(axis=1)
    defect[:, _DIAG_IDX] -= 1.0
    transfer[:, _DIAG_IDX, :] -= defect[:, None, :] / 3.0
    return transfer


def _transfer_power(transfer: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Binary powers transfer[k]**exponents[k] (a (1, 9, 9) transfer is shared),
    with the trace projection after each product.  A point keeps a product
    only where its own bit is set, so it gets the power it would get alone."""
    n = np.array(exponents)
    result, base = np.broadcast_to(_I9, (len(n), 9, 9)), transfer
    while n.any():
        result = np.where((n & 1)[:, None, None] == 1, _restore_trace_rows(result @ base), result)
        n >>= 1
        if n.any():
            base = _restore_trace_rows(base @ base)
    return result


def _step_counts(models, rho0, t_final: float, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked rho0, step counts and actual steps.  Each maximum step dt[k] must
    be positive, finite and at most 1/(50 * f_max) for model k (StepTooLarge
    otherwise); each actual step divides the finite t_final >= 0 evenly."""
    rho0 = check_density_matrix(rho0)
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    dt = np.broadcast_to(np.asarray(dt, dtype=float), (len(models),))
    f_max = np.array([max_cyclic_frequency(model) for model in models])
    bound = np.divide(1.0, 50.0 * f_max, out=np.full(len(dt), math.inf), where=f_max > 0.0)
    bad = ~((dt > 0.0) & (dt < math.inf) & (dt <= bound * (1.0 + 1e-12)))  # NaN is bad
    if bad.any():
        k = int(np.argmax(bad))
        raise StepTooLarge(
            f"dt={dt[k]} us{f' at point {k}' if len(dt) > 1 else ''} must be positive, finite"
            f" and at most 1/(50*f_max)={bound[k]:.6g} us for f_max={f_max[k]:.6g} MHz"
        )
    n_steps = np.maximum(1.0, np.ceil(t_final / dt - 1e-12))
    if not np.all(n_steps <= 2.0**62):
        raise ValueError(f"t_final={t_final} needs more than 2**62 steps of dt")
    return rho0, n_steps.astype(np.int64), t_final / n_steps


def _generators(models: Sequence[ThreeLevelModel]) -> np.ndarray:
    """Stacked Liouvillians of models that share the rate set of the first."""
    drives = [(m.drive.delta_p, m.drive.delta_c, m.drive.omega_p, m.drive.omega_c) for m in models]
    return _liouvillians(hamiltonian_stack(*np.array(drives).T), _dissipator(models[0].rates))


def _checked_states(states: np.ndarray, what: str) -> np.ndarray:
    """Propagated states, re-symmetrized and checked in one call with the drift allowance."""
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
    try:
        check_density_matrix(states, trace_tol=_TRACE_DRIFT_LIMIT)
    except NonPhysicalResult as exc:
        raise NonPhysicalResult(f"trajectory left the physical set: {what} {exc}") from exc
    return states


def evolve(
    model: ThreeLevelModel,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step 4th-order propagation of the master equation.

    ``dt`` is the maximum step (StepTooLarge above 1/(50 * f_max), f_max the
    model's largest cyclic frequency scale); the actual step divides t_final
    evenly.  States are recorded every ``record_every`` steps plus the first
    and last, re-symmetrized and checked in one call with a 1e-9 trace-drift
    allowance; an error names the first failing state's index.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    rho0, n_steps, dt_eff = _step_counts([model], rho0, t_final, dt)
    if t_final == 0.0:
        return Trajectory(times=np.array([0.0]), states=rho0[np.newaxis].copy())

    # Jump between recorded points with one power per distinct segment length.
    record_idx = np.append(np.arange(0, n_steps[0], min(record_every, n_steps[0])), n_steps)
    lengths, segments = np.unique(np.diff(record_idx), return_inverse=True)
    maps = _transfer_power(_rk4_transfer_matrix(build_liouvillian(model)[None], dt_eff), lengths)
    vs = accumulate((maps[k] for k in segments), lambda v, m: m @ v, initial=vectorize(rho0))
    states = _checked_states(np.array([unvectorize(v) for v in vs]), "recorded")
    return Trajectory(times=record_idx * dt_eff[0], states=states)


def final_states(models: Sequence[ThreeLevelModel], rho0, t_final: float, dt) -> np.ndarray:
    """Final state of ``evolve(models[k], rho0, t_final, dt[k])`` for every k,
    bit for bit when evolve records nothing between, as an (n, 3, 3) stack.

    The models share one rate set (ValueError otherwise).  Points go ``_CHUNK``
    at a time, each with its own step and binary power, so memory stays
    bounded; the final states are checked in one call."""
    if len({model.rates for model in models}) > 1:
        raise ValueError("models must share one rate set")
    rho0, n_steps, dt_eff = _step_counts(models, rho0, t_final, dt)
    if t_final == 0.0:
        return np.repeat(rho0[np.newaxis], len(models), axis=0)
    v = np.empty((len(models), 9, 1), dtype=complex)
    for start in range(0, len(models), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        step = _rk4_transfer_matrix(_generators(models[chunk]), dt_eff[chunk])
        v[chunk] = _transfer_power(step, n_steps[chunk]) @ vectorize(rho0)[:, None]
    # Undo column stacking: vec(rho)[i + 3j] = rho[i, j].
    return _checked_states(v.reshape(-1, 3, 3).transpose(0, 2, 1), "final")
