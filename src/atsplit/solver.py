"""Real Lindblad generators, steady-state solve, and a fixed-step propagator.

States are real coherence vectors c_k = tr(E_k rho) in the orthonormal
Hermitian basis ``_BASIS`` (Alicki & Lendi, Quantum Dynamical Semigroups and
Applications, LNP 286, 1987), so every state is Hermitian by construction.
The master equation, defined once on 3x3 matrices, becomes a real 9x9
generator whose row 0 is exactly zero, so c_0 = tr(rho)/sqrt(3) is conserved
exactly.  ``build_liouvillian`` gives it under column stacking instead.
One routine, ``_propagated``, turns generators, steps and step counts into
checked states; ``evolve`` and ``final_states`` both go through it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalResult, SingularLiouvillian, StepTooLarge
from .model import (
    EIG_FLOOR,
    TWO_PI,
    DecoherenceRates,
    ThreeLevelModel,
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


def _generators(drives: np.ndarray, rates: DecoherenceRates) -> np.ndarray:
    """Real 9x9 generators, one per row of an (n, 4) array of drive values
    under one rate set.  The product is stacked, one vector per point, so a
    generator never depends on the batch it was built in."""
    params = np.empty((len(drives), 1, 9))
    params[:, 0, :4] = drives
    params[:, 0, 4:] = rates.as_tuple()
    return (params @ _GENERATORS).reshape(-1, 9, 9)


def _model_generators(models: Sequence[ThreeLevelModel]) -> np.ndarray:
    """Real generators of models that share the rate set of the first."""
    drives = [(m.drive.delta_p, m.drive.delta_c, m.drive.omega_p, m.drive.omega_c) for m in models]
    return _generators(np.array(drives), models[0].rates)


def _states(c: np.ndarray) -> np.ndarray:
    """Density matrices sum_k c[n, k] E_k of an (n, 9) stack of coherence vectors."""
    return (c[:, None, :] @ _BASIS.reshape(9, 9)).reshape(-1, 3, 3)


def _coherence_vector(rho: np.ndarray) -> np.ndarray:
    """Real coherence vector c_k = tr(E_k rho) of one Hermitian 3x3 matrix."""
    return (_BASIS.conj().reshape(9, 9) @ rho.reshape(9)).real


def build_liouvillian(model: ThreeLevelModel) -> np.ndarray:
    """9x9 generator L with vec(d rho/dt) = L . vec(rho), in rad/us."""
    return _VEC_BASIS @ _model_generators([model])[0] @ _VEC_BASIS.conj().T


def steady_state(model: ThreeLevelModel) -> np.ndarray:
    """Unique steady state of the master equation: ``steady_states`` for one point."""
    d = model.drive
    return steady_states(d.delta_p, d.delta_c, d.omega_p, d.omega_c, model.rates)[0]


def steady_states(delta_p, delta_c, omega_p, omega_c, rates: DecoherenceRates) -> np.ndarray:
    """Steady states for a batch of drive settings sharing one rate set.

    Drive arguments are 1-D arrays or scalars of the ``DriveParams`` fields,
    broadcast together; returns an (n, 3, 3) stack of density matrices.
    Points are solved ``_CHUNK`` at a time, each independently, so a value
    never depends on the batch it was solved in.  Each real generator, its
    zero row 0 replaced by c_0 = 1, is inverted directly (exact to machine
    precision), and the solution's residual and eigenvalues are checked.

    Raises SingularLiouvillian when a constrained system is rank deficient
    (steady state not unique, e.g. no dissipation at all) or its residual
    exceeds the limit, and NonPhysicalResult when a state violates the
    positivity floor; both name the grid point.
    """
    drive_arrays = [np.asarray(a, dtype=float) for a in (delta_p, delta_c, omega_p, omega_c)]
    drives = np.broadcast_arrays(*np.atleast_1d(*drive_arrays))
    rho = np.empty((drives[0].size, 3, 3), dtype=complex)
    for start in range(0, len(rho), _CHUNK):
        chunk = [d[start:start + _CHUNK] for d in drives]
        generators = _generators(np.column_stack(chunk), rates)
        rho[start:start + _CHUNK] = _solve_chunk(generators, chunk, start)
    return rho


def _solve_chunk(generators: np.ndarray, drives: list[np.ndarray], offset: int) -> np.ndarray:
    """Checked steady states of one chunk (see ``steady_states``); ``drives``
    and ``offset`` name the failing grid point in errors."""

    def at(k: int) -> str:
        return f"at grid point {offset + k} (delta_p={drives[0][k]}, delta_c={drives[1][k]})"

    constrained = generators.copy()
    constrained[:, 0, 0] = 1.0

    try:
        inverse = np.linalg.inv(constrained)
    except np.linalg.LinAlgError:  # an exactly zero pivot, where slogdet's sign is 0
        k = int(np.argmin(np.abs(np.linalg.slogdet(constrained)[0])))
        raise SingularLiouvillian(f"steady state not unique {at(k)}: singular") from None
    # With t the trace functional, the column-stacked system A (L with row 0
    # replaced by t) is E (L + t t^T/3), E = I - e0 e0^T - t t^T/3 + (4/3) e0 t^T
    # with kappa_2(E) = 3, and L + t t^T/3 is unitarily similar to this B.  So
    # kappa_2(A) <= 3 kappa_2(B) <= 27 kappa_1(B), and no A with a 2-norm
    # condition above _COND_LIMIT passes.
    kappa = np.linalg.norm(constrained, 1, (1, 2)) * np.linalg.norm(inverse, 1, (1, 2))
    rejected = ~(kappa <= _COND_LIMIT / 27.0)  # NaN counts as rejected
    if rejected.any():
        k = int(np.argmax(rejected))
        raise SingularLiouvillian(
            f"steady state not unique {at(k)}: 1-norm condition {kappa[k]:.3e}"
        )

    # Column 0 of the inverse solves for right-hand side e_0, so its c_0 is 1.
    c = inverse[:, :, 0] / math.sqrt(3.0)
    # The basis change is unitary: this equals ||L vec(rho)||.
    residuals = np.linalg.norm(np.einsum("nab,nb->na", generators, c), axis=1)
    if residuals.max() > _RESIDUAL_LIMIT:
        k = int(np.argmax(residuals))
        raise SingularLiouvillian(
            f"steady-state residual {residuals[k]:.3e} {at(k)} exceeds {_RESIDUAL_LIMIT}"
        )
    rho = _states(c)
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < EIG_FLOOR:
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


def _step_counts(models, rho0, t_final, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked rho0, step counts and actual steps, t_final and dt broadcast
    over the models.  Each maximum step dt[k] must be positive, finite and at
    most 1/(50 * f_max) for model k (StepTooLarge otherwise); each actual step
    divides the finite t_final[k] >= 0 evenly, and t_final[k] = 0 takes none."""
    rho0 = check_density_matrix(rho0)
    t_final = np.broadcast_to(np.asarray(t_final, dtype=float), (len(models),))
    bad = ~((t_final >= 0.0) & (t_final < math.inf))
    if bad.any():
        raise ValueError(f"t_final must be finite and >= 0, got {t_final[np.argmax(bad)]}")
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
    n_steps = np.maximum(t_final > 0.0, np.ceil(t_final / dt - 1e-12))
    if not np.all(n_steps <= 2.0**62):
        raise ValueError(f"t_final={t_final.max()} needs more than 2**62 steps of dt")
    return rho0, n_steps.astype(np.int64), t_final / np.maximum(n_steps, 1.0)


def _propagated(models, dt, exponents, rho0, what: str) -> np.ndarray:
    """Checked states c0 + ((I + X[k])**exponents[k] - I) c0, I + X[k] the RK4
    step dt[k] of models[k]; one model and one dt make one step shared by
    every exponent.  Points go ``_CHUNK`` at a time, each with its own binary
    power, so memory stays bounded; exponent 0 gives rho0 itself.  The states
    are checked in one call with the 1e-9 trace-drift allowance."""
    c, c0 = np.empty((len(exponents), 9, 1)), _coherence_vector(rho0)[:, None]
    for start in range(0, len(exponents), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        own = chunk if len(dt) > 1 else slice(None)
        step = _rk4_transfer_matrix(_model_generators(models[own]), dt[own])
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
    rho0, n_steps, dt_eff = _step_counts([model], rho0, t_final, dt)
    record_idx = np.append(np.arange(0, n_steps[0], record_every), n_steps)
    states = _propagated([model], dt_eff, record_idx, rho0, "recorded")
    return Trajectory(times=record_idx * dt_eff[0], states=states)


def final_states(models: Sequence[ThreeLevelModel], rho0, t_final, dt) -> np.ndarray:
    """Final state of ``evolve(models[k], rho0, t_final[k], dt[k])`` for every
    k, bit for bit, as an (n, 3, 3) stack; t_final and dt broadcast like
    arrays.  The models share one rate set (ValueError otherwise); each point
    takes its own step and binary power, and the states are checked in one
    call."""
    if len({model.rates for model in models}) > 1:
        raise ValueError("models must share one rate set")
    rho0, n_steps, dt_eff = _step_counts(models, rho0, t_final, dt)
    return _propagated(models, dt_eff, n_steps, rho0, "final")
