"""Real Lindblad generators, steady-state solve, and a fixed-step propagator.

States are real coherence vectors c_k = tr(E_k rho) in the orthonormal
Hermitian basis ``_BASIS`` (Alicki & Lendi, Quantum Dynamical Semigroups and
Applications, LNP 286, 1987), so every state is Hermitian by construction.
The master equation, defined once on 3x3 matrices, becomes a real 9x9
generator whose row 0 is exactly zero, so c_0 = tr(rho)/sqrt(3) is conserved
exactly.  ``build_liouvillian`` gives it under column stacking instead.
The batch solvers ``steady_states`` and ``final_states`` both take drive
arrays and one rate set.  One routine, ``_propagated``, turns drive rows,
steps and step counts into checked states for ``evolve`` and ``final_states``.
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
    below_eig_floor,
    check_density_matrix,
    collapse_operators,
    hamiltonian_stack,
)

#: Condition-number threshold beyond which the trace-constrained system is
#: treated as rank deficient (non-unique steady state).
_COND_LIMIT = 1e12

#: Residual ceiling for an accepted steady-state solution.
_RESIDUAL_LIMIT = 1e-10

#: Grid points per batch of the steady-state kernel, so its work arrays
#: stay bounded for any grid size.
_CHUNK = 1024

#: Allowed trace drift over a full time evolution.
_TRACE_DRIFT_LIMIT = 1e-9

#: Fraction of its step bound at which each point of ``final_states`` steps.
_PULSE_STEP_FRACTION = 0.25


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


def _gell_mann_basis() -> np.ndarray:
    """E_0 = I/sqrt(3), then the eight Gell-Mann matrices divided by sqrt(2):
    Hermitian, with tr(E_j E_k) = delta_jk."""
    basis = np.zeros((9, 3, 3), dtype=complex)
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        basis[2 * k + 1, [i, j], [j, i]] = 1.0
        basis[2 * k + 2, [i, j], [j, i]] = -1j, 1j
    basis[7:] = np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / math.sqrt(3.0)
    basis[1:] /= math.sqrt(2.0)
    basis[0] = np.eye(3) / math.sqrt(3.0)
    return basis


_BASIS = _gell_mann_basis()

#: Unitary change of basis whose column k is vec(E_k) under column stacking.
_VEC_BASIS = np.array([vectorize(e) for e in _BASIS]).T


def _master_equation(h: np.ndarray, ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad right-hand side -i[H, rho] + sum_C (C rho C^H - {C^H C, rho}/2),
    broadcast over stacks: h and rho are (..., 3, 3), ops (..., n_ops, 3, 3)."""
    ops_dag = ops.conj().swapaxes(-1, -2)
    r = rho[..., None, :, :]
    jumps = ops @ r @ ops_dag - 0.5 * (ops_dag @ ops @ r + r @ ops_dag @ ops)
    return -1j * (h @ rho - rho @ h) + jumps.sum(axis=-3)


def _generator_table() -> np.ndarray:
    """Flattened real generators R[j, k] = tr(E_j f(E_k)) at unit values of
    the four drive fields, then of the five rates (the generator is linear
    in each), with row 0 set to exactly zero: it holds only roundoff."""
    h = np.concatenate([hamiltonian_stack(*np.eye(4)), np.zeros((5, 3, 3))])
    unit_ops = [collapse_operators(DecoherenceRates(*unit)) for unit in np.eye(5)]
    ops = np.concatenate([np.zeros((4, 5, 3, 3)), np.array(unit_ops)])
    images = _master_equation(h[:, None], ops[:, None], _BASIS)  # f_g(E_k)
    table = np.einsum("jab,gkba->gjk", _BASIS, images).real
    table[:, 0, :] = 0.0
    return table.reshape(9, 81)


_GENERATORS = _generator_table()


def _generators(drives, rates: DecoherenceRates) -> np.ndarray:
    """Real 9x9 generators, one per point of four equal-length drive arrays
    under one rate set.  The product is stacked, one vector per point, so a
    generator never depends on the batch it was built in."""
    params = np.empty((len(drives[0]), 1, 9))
    params[:, 0, :4] = np.transpose(drives)
    params[:, 0, 4:] = rates.as_tuple()
    return (params @ _GENERATORS).reshape(-1, 9, 9)


def _broadcast(*values) -> list[np.ndarray]:
    """1-D float views of arrays or scalars, broadcast to one length."""
    return np.broadcast_arrays(*np.atleast_1d(*(np.asarray(v, dtype=float) for v in values)))


def _states(c: np.ndarray) -> np.ndarray:
    """Density matrices sum_k c[n, k] E_k of an (n, 9) stack of coherence vectors."""
    return (c[:, None, :] @ _BASIS.reshape(9, 9)).reshape(-1, 3, 3)


def _coherence_vector(rho: np.ndarray) -> np.ndarray:
    """Real coherence vector c_k = tr(E_k rho) of one Hermitian 3x3 matrix."""
    return (_BASIS.conj().reshape(9, 9) @ rho.reshape(9)).real


def build_liouvillian(model: ThreeLevelModel) -> np.ndarray:
    """9x9 generator L with vec(d rho/dt) = L . vec(rho), in rad/us."""
    generator = _generators(np.array([model.drive.as_tuple()]).T, model.rates)[0]
    return _VEC_BASIS @ generator @ _VEC_BASIS.conj().T


def steady_state(model: ThreeLevelModel) -> np.ndarray:
    """Unique steady state of the master equation: ``steady_states`` for one point."""
    return steady_states(*model.drive.as_tuple(), model.rates)[0]


def steady_states(delta_p, delta_c, omega_p, omega_c, rates: DecoherenceRates) -> np.ndarray:
    """Steady states for a batch of drive settings sharing one rate set.

    Drive arguments are 1-D arrays or scalars of the ``DriveParams`` fields,
    broadcast together; returns an (n, 3, 3) stack of density matrices.
    Points are solved ``_CHUNK`` at a time, each independently, so a value
    never depends on the batch it was solved in.  Each real generator, its
    zero row 0 replaced by c_0 = 1, is inverted directly (exact to machine
    precision); the residual is checked, and positivity by LDL^H pivots
    (``below_eig_floor``), with eigvalsh only to word an error.

    Raises SingularLiouvillian when a constrained system is rank deficient
    (steady state not unique, e.g. no dissipation at all) or its residual
    exceeds the limit, and NonPhysicalResult when a state violates the
    positivity floor; both name the grid point.
    """
    drives = _broadcast(delta_p, delta_c, omega_p, omega_c)
    rho = np.empty((drives[0].size, 3, 3), dtype=complex)
    for start in range(0, len(rho), _CHUNK):
        chunk = [d[start:start + _CHUNK] for d in drives]
        rho[start:start + _CHUNK] = _solve_chunk(_generators(chunk, rates), chunk, start)
    return rho


def _solve_chunk(system: np.ndarray, drives: list[np.ndarray], offset: int) -> np.ndarray:
    """Checked steady states of one chunk (see ``steady_states``) from its
    freshly built generators, whose zero entry [0, 0] is set to 1 in place;
    ``drives`` and ``offset`` name the failing grid point in errors."""

    def at(k: int) -> str:
        return f"at grid point {offset + k} (delta_p={drives[0][k]}, delta_c={drives[1][k]})"

    system[:, 0, 0] = 1.0
    try:
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError:  # an exactly zero pivot, where slogdet's sign is 0
        k = int(np.argmin(np.abs(np.linalg.slogdet(system)[0])))
        raise SingularLiouvillian(f"steady state not unique {at(k)}: singular") from None
    # With t the trace functional, the column-stacked system A (L with row 0
    # replaced by t) is E (L + t t^T/3), E = I - e0 e0^T - t t^T/3 + (4/3) e0 t^T
    # with kappa_2(E) = 3, and L + t t^T/3 is unitarily similar to this B.  So
    # kappa_2(A) <= 3 kappa_2(B) <= 27 kappa_1(B), and no A with a 2-norm
    # condition above _COND_LIMIT passes.  Each 1-norm is a largest column sum,
    # which einsum finds faster than np.linalg.norm(x, 1, (1, 2)) on 9x9 stacks.
    column_sums = [np.einsum("nij->nj", abs(x)) for x in (system, inverse)]
    kappa = column_sums[0].max(axis=1) * column_sums[1].max(axis=1)
    rejected = ~(kappa <= _COND_LIMIT / 27.0)  # NaN counts as rejected
    if rejected.any():
        k = int(np.argmax(rejected))
        raise SingularLiouvillian(
            f"steady state not unique {at(k)}: 1-norm condition {kappa[k]:.3e}"
        )

    # Column 0 of the inverse solves for right-hand side e_0, so its c_0 is 1.
    c = inverse[:, :, 0] / math.sqrt(3.0)
    # Rows 1..8 of B are the generator's (its row 0 is zero), and the basis
    # change is unitary: this equals ||L vec(rho)||.
    residuals = np.linalg.norm(np.einsum("nab,nb->na", system[:, 1:], c), axis=1)
    if residuals.max() > _RESIDUAL_LIMIT:
        k = int(np.argmax(residuals))
        raise SingularLiouvillian(
            f"steady-state residual {residuals[k]:.3e} {at(k)} exceeds {_RESIDUAL_LIMIT}"
        )
    rho = _states(c)
    failed = below_eig_floor(rho)
    if failed.any():
        k = int(np.argmax(failed))
        lowest = np.linalg.eigvalsh(rho[k])[0]
        raise NonPhysicalResult(f"steady state {at(k)} has eigenvalue {lowest:.3e}")
    return rho


def max_cyclic_frequency(model: ThreeLevelModel) -> float:
    """Largest frequency scale of the model in cyclic MHz, which bounds the
    integration step: drive amplitudes, |detunings| and the largest rate / 2 pi."""
    return float(_cyclic_frequencies(np.array([model.drive.as_tuple()]).T, model.rates)[0])


def _cyclic_frequencies(drives, rates: DecoherenceRates) -> np.ndarray:
    """``max_cyclic_frequency`` of every point of four equal-length drive arrays."""
    return np.maximum(np.abs(drives).max(axis=0), max(rates.as_tuple()) / TWO_PI)


def _rk4_transfer_matrix(generators: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """One-step classic RK4 maps I + X[k] for d c/dt = R c, one step dt[k] per
    generator, returned as X.  For a time-independent generator the RK4
    stages collapse to the degree-4 Taylor polynomial of exp(dt R), whose
    powers reproduce fixed-step RK4 exactly and allow cheap long jumps.
    Without I, roundoff scales with X, not 1, so relaxed populations are not
    left at ulp(1) / (dt * rate).  Row 0 of R, so of every X, is exactly
    zero: the trace is conserved without correction.
    """
    a = dt[:, None, None] * generators
    a2 = a @ a
    return a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0


def _transfer_power(transfer: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Increments of binary powers (I + X[k])**exponents[k] - I, with
    (I + Y)(I + X) = I + Y + X + YX (a (1, 9, 9) X is shared).  A point keeps
    a product only where its own bit is set, so it gets its power alone."""
    n = np.array(exponents)
    result, base = np.zeros((len(n), 9, 9)), transfer
    while n.any():
        result = np.where((n & 1)[:, None, None] == 1, result + base + result @ base, result)
        n >>= 1
        if n.any():
            base = 2.0 * base + base @ base
    return result


def _step_counts(drives, rates, rho0, t_final, dt=None) -> tuple[np.ndarray, ...]:
    """Checked rho0, step counts and actual steps, t_final and dt broadcast
    over the drive rows.  Each maximum step dt[k] (by default
    ``_PULSE_STEP_FRACTION`` of its bound, or 1.0 where f_max = 0) must be
    positive, finite and at most 1/(50 * f_max) for row k (StepTooLarge
    otherwise); each actual step divides the finite t_final[k] >= 0 evenly."""
    rho0 = check_density_matrix(rho0)
    n = len(drives[0])
    t_final = np.broadcast_to(np.asarray(t_final, dtype=float), (n,))
    bad = ~((t_final >= 0.0) & (t_final < math.inf))
    if bad.any():
        raise ValueError(f"t_final must be finite and >= 0, got {t_final[np.argmax(bad)]}")
    f_max = _cyclic_frequencies(drives, rates)
    if dt is None:
        dt = np.divide(_PULSE_STEP_FRACTION, 50.0 * f_max, out=np.ones(n), where=f_max != 0.0)
    dt = np.broadcast_to(np.asarray(dt, dtype=float), (n,))
    bound = np.divide(1.0, 50.0 * f_max, out=np.full(n, math.inf), where=f_max > 0.0)
    bad = ~((dt > 0.0) & (dt < math.inf) & (dt <= bound * (1.0 + 1e-12)))  # NaN is bad
    if bad.any():
        k = int(np.argmax(bad))
        raise StepTooLarge(
            f"dt={dt[k]} us{f' at point {k}' if n > 1 else ''} must be positive, finite"
            f" and at most 1/(50*f_max)={bound[k]:.6g} us for f_max={f_max[k]:.6g} MHz"
        )
    n_steps = np.maximum(t_final > 0.0, np.ceil(t_final / dt - 1e-12))
    if not np.all(n_steps <= 2.0**62):
        raise ValueError(f"t_final={t_final.max()} needs more than 2**62 steps of dt")
    return rho0, n_steps.astype(np.int64), t_final / np.maximum(n_steps, 1.0)


def _propagated(drives, rates, dt, exponents, rho0, what: str) -> np.ndarray:
    """Checked states c0 + ((I + X[k])**exponents[k] - I) c0, I + X[k] the RK4
    step dt[k] of drive row k; one row and one dt make one step shared by
    every exponent.  Points go ``_CHUNK`` at a time, each with its own binary
    power, so memory stays bounded; exponent 0 gives rho0 itself.  The states
    are checked in one call with the 1e-9 trace-drift allowance."""
    c, c0 = np.empty((len(exponents), 9, 1)), _coherence_vector(rho0)[:, None]
    for start in range(0, len(exponents), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        own = chunk if len(dt) > 1 else slice(None)
        step = _rk4_transfer_matrix(_generators([d[own] for d in drives], rates), dt[own])
        c[chunk] = c0 + _transfer_power(step, exponents[chunk]) @ c0
    states = _states(c[:, :, 0])
    states[exponents == 0] = rho0
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
    and last, each as its own power of the one step, and checked in one
    call with a 1e-9 trace-drift allowance; an error names the first
    failing state's index.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    drives = np.array([model.drive.as_tuple()]).T
    rho0, n_steps, dt_eff = _step_counts(drives, model.rates, rho0, t_final, dt)
    record_idx = np.append(np.arange(0, n_steps[0], record_every), n_steps)
    states = _propagated(drives, model.rates, dt_eff, record_idx, rho0, "recorded")
    return Trajectory(times=record_idx * dt_eff[0], states=states)


def final_states(
    delta_p, delta_c, omega_p, omega_c, rates: DecoherenceRates, rho0, t_final
) -> np.ndarray:
    """(n, 3, 3) stack of the states at t_final from rho0, one per point of
    the drive arrays and t_final broadcast together, under one rate set.
    Point k equals ``evolve`` of its model at ``_PULSE_STEP_FRACTION`` of its
    step bound (1.0 where f_max = 0), bit for bit, with its own binary power;
    a drive value that leaves no valid step raises StepTooLarge at point k."""
    *drives, t_final = _broadcast(delta_p, delta_c, omega_p, omega_c, t_final)
    rho0, n_steps, dt = _step_counts(drives, rates, rho0, t_final)
    return _propagated(drives, rates, dt, n_steps, rho0, "final")
