"""Real Lindblad generators, steady-state solve, and two propagators.

States are real coherence vectors c_k = tr(E_k rho) in the orthonormal
Hermitian basis ``_BASIS`` (Alicki & Lendi, Quantum Dynamical Semigroups and
Applications, LNP 286, 1987), so every state is Hermitian by construction.
The master equation, defined once on 3x3 matrices, becomes a real 9x9
generator whose row 0 is exactly zero, so c_0 = tr(rho)/sqrt(3) is conserved
exactly.  ``build_liouvillian`` gives it under column stacking instead.
The batch solvers ``steady_states`` and ``final_states`` both take drive
arrays and one rate set (``steady_states`` also one per point).
``final_states`` applies exp(t R) by scaling and squaring; ``evolve`` is
fixed-step RK4, kept as an independent oracle.  One routine,
``_propagated``, turns either's increments into checked states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonPhysicalResult, SingularLiouvillian
from .model import (
    TWO_PI,
    DecoherenceRates,
    DriveParams,
    ThreeLevelModel,
    below_eig_floor,
    build_hamiltonian,
    check_density_matrix,
    collapse_operators,
    reject,
)

#: Condition-number threshold beyond which the trace-constrained system is
#: treated as rank deficient (non-unique steady state).
_COND_LIMIT = 1e12

#: Ceiling on the relative residual eta = ||R c||_2 / (||B||_1 ||c||_2), which
#: bounds the backward error at any rate scale (Rigal & Gaches, J. ACM 14,
#: 1967).  The refined solve is backward stable: measured, eta <= 0.46 eps.
_RELATIVE_RESIDUAL_LIMIT = 64.0 * np.finfo(float).eps

#: Grid points per batch of the steady-state kernel, so its work arrays
#: stay bounded for any grid size.
_CHUNK = 1024


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
    h = np.array([build_hamiltonian(DriveParams(*unit[:4])) for unit in np.eye(9)])
    ops = np.array([collapse_operators(DecoherenceRates(*unit[4:])) for unit in np.eye(9)])
    images = _master_equation(h[:, None], ops[:, None], _BASIS)  # f_g(E_k)
    table = np.einsum("jab,gkba->gjk", _BASIS, images).real
    table[:, 0, :] = 0.0
    return table.reshape(9, 81)


_GENERATORS = _generator_table()


def _generators(drives, rates) -> np.ndarray:
    """Real 9x9 generators, one per point of four equal-length drive arrays
    under the five rates of ``DecoherenceRates.as_tuple``, or one row of them
    per point.  The product is stacked, one vector per point, so a generator
    never depends on the batch it was built in."""
    params = np.empty((len(drives[0]), 1, 9))
    params[:, 0, :4] = np.transpose(drives)
    params[:, 0, 4:] = rates
    return (params @ _GENERATORS).reshape(-1, 9, 9)


def _at(k: int, arrays) -> str:
    """Point k of broadcast drive arrays, then t_final or per-point rates,
    named by its values, not its index, so an error reads the same for any batch or span."""
    names = [f.name for f in fields(DriveParams)]
    names += [f.name for f in fields(DecoherenceRates)] if len(arrays) > 5 else ["t_final"]
    return "at " + ", ".join(f"{n}={float(a[k])!r}" for n, a in zip(names, arrays))


def _broadcast(*values) -> list[np.ndarray]:
    """1-D float views of arrays or scalars, broadcast to one length.  A
    point with a value that is not finite raises ValueError naming it."""
    arrays = np.broadcast_arrays(*np.atleast_1d(*(np.asarray(v, dtype=float) for v in values)))
    reject(~np.logical_and.reduce([np.isfinite(a) for a in arrays]), ValueError,
           lambda k: f"values must be finite {_at(k, arrays)}")
    return arrays


def _states(c: np.ndarray) -> np.ndarray:
    """Density matrices sum_k c[n, k] E_k of an (n, 9) stack of coherence vectors."""
    return (c[:, None, :] @ _BASIS.reshape(9, 9)).reshape(-1, 3, 3)


def _coherence_vector(rho: np.ndarray) -> np.ndarray:
    """Real coherence vector c_k = tr(E_k rho) of one Hermitian 3x3 matrix."""
    return (_BASIS.conj().reshape(9, 9) @ rho.reshape(9)).real


def build_liouvillian(model: ThreeLevelModel) -> np.ndarray:
    """9x9 generator L with vec(d rho/dt) = L . vec(rho), in rad/us."""
    generator = _generators(np.array([model.drive.as_tuple()]).T, model.rates.as_tuple())[0]
    return _VEC_BASIS @ generator @ _VEC_BASIS.conj().T


def steady_state(model: ThreeLevelModel) -> np.ndarray:
    """Unique steady state of the master equation: ``steady_states`` for one point."""
    return steady_states(*model.drive.as_tuple(), model.rates)[0]


def steady_states(delta_p, delta_c, omega_p, omega_c, rates) -> np.ndarray:
    """Steady states for a batch of drive settings.

    Drive arguments are 1-D arrays or scalars of the ``DriveParams`` fields,
    broadcast together; returns an (n, 3, 3) stack of density matrices.
    ``rates`` is one ``DecoherenceRates`` for every point, or an (n, 5)
    array of its ``as_tuple`` rows, one per point.  A drive value that is
    not finite, or a rate that is not finite and >= 0, raises ValueError.
    Points are solved ``_CHUNK`` at a time, each independently, so a value
    never depends on the batch it was solved in.  Each real generator, its
    zero row 0 replaced by c_0 = 1, is solved through the inverse of its
    8x8 block below row 0 and refined once with it (``_solve_chunk``), a
    backward-stable solve (Skeel 1980; Higham 2002, ch. 12): its relative
    residual must stay below 64 eps.  Positivity is checked by LDL^H pivots
    (``below_eig_floor``), with eigvalsh only to word an error.

    Raises SingularLiouvillian when a constrained system is rank deficient
    (steady state not unique, e.g. no dissipation at all), overflows to
    inf or NaN, or its relative residual exceeds the limit, and
    NonPhysicalResult when a state violates the positivity floor.  Every
    error names the first failing point by its drive values and per-point
    rates (``_at``), never by an index.
    """
    drives = _broadcast(delta_p, delta_c, omega_p, omega_c)
    if isinstance(rates, DecoherenceRates):
        rates = rates.as_tuple()
    rows = np.broadcast_to(np.asarray(rates, dtype=float), (drives[0].size, 5))
    reject(~((rows >= 0.0) & (rows < math.inf)).all(axis=1), ValueError,  # NaN fails too
           lambda k: f"rates must be finite and >= 0 {_at(k, drives)}, got {rows[k].tolist()}")
    named = [*drives, *rows.T] if np.ndim(rates) == 2 else drives  # name per-point rates too
    rho = np.empty((drives[0].size, 3, 3), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # the condition gate rejects inf and NaN
        for start in range(0, len(rho), _CHUNK):
            chunk = [d[start:start + _CHUNK] for d in named]
            rho[start:start + _CHUNK] = _solve_chunk(
                _generators(chunk[:4], rows[start:start + _CHUNK]), chunk)
    return rho


def _solve_chunk(system: np.ndarray, drives: list[np.ndarray]) -> np.ndarray:
    """Checked steady states of one chunk (see ``steady_states``) from its
    freshly built generators, whose zero entry [0, 0] is set to 1 in place.

    Row 0 of the system B is then e_0^T, so B = [[1, 0], [r, M]] with M its
    rows and columns 1..8, and B^-1 = [[1, 0], [-M^-1 r, M^-1]] (Golub & Van
    Loan, Matrix Computations, sec. 3.1): only the 8x8 M is inverted, and
    det B = det M, so M is singular exactly when B is."""
    system[:, 0, 0] = 1.0
    matrix = system[:, 1:, 1:]
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:  # an exactly zero pivot, where slogdet's sign is 0
        k = int(np.argmin(np.abs(np.linalg.slogdet(matrix)[0])))
        raise SingularLiouvillian(f"steady state not unique {_at(k, drives)}: singular") from None
    tail = -np.einsum("nab,nb->na", inverse, system[:, 1:, 0])  # -M^-1 r, column 0 of B^-1
    # With t the trace functional, the column-stacked system A (L with row 0
    # replaced by t) is E (L + t t^T/3), E = I - e0 e0^T - t t^T/3 + (4/3) e0 t^T
    # with kappa_2(E) = 3, and L + t t^T/3 is unitarily similar to this B.  So
    # kappa_2(A) <= 3 kappa_2(B) <= 27 kappa_1(B), and no A with a 2-norm
    # condition above _COND_LIMIT passes.  Each 1-norm is a largest column sum,
    # which einsum finds faster than np.linalg.norm(x, 1, (1, 2)) on stacks;
    # B^-1's are 1 + ||M^-1 r||_1 (column 0) and those of M^-1.
    inverse_norm = np.maximum(1.0 + abs(tail).sum(axis=1),
                              np.einsum("nij->nj", abs(inverse)).max(axis=1))
    system_norm = np.einsum("nij->nj", abs(system)).max(axis=1)
    kappa = system_norm * inverse_norm
    reject(~(kappa <= _COND_LIMIT / 27.0), SingularLiouvillian,  # NaN counts as rejected
           lambda k: f"steady state not unique {_at(k, drives)}: 1-norm condition {kappa[k]:.3e}")

    # Column 0 of B^-1 solves for right-hand side e_0, so its c_0 is 1.
    c = np.empty((len(system), 9))
    c[:, 0], c[:, 1:] = 1.0, tail
    c /= math.sqrt(3.0)
    # Rows 1..8 of B are the generator's (its row 0 is zero), and the basis
    # change is unitary: ||R c|| equals ||L vec(rho)||.  Row 0 of the residual
    # is zero, so one refinement step (``steady_states``) is c -= [0; M^-1 R c].
    c[:, 1:] -= np.einsum("nab,nb->na", inverse, np.einsum("nab,nb->na", system[:, 1:], c))
    residuals = np.linalg.norm(np.einsum("nab,nb->na", system[:, 1:], c), axis=1) / (
        system_norm * np.linalg.norm(c, axis=1))
    reject(residuals > _RELATIVE_RESIDUAL_LIMIT, SingularLiouvillian, lambda k: (
        f"steady-state residual {residuals[k]:.3e} {_at(k, drives)}"
        f" exceeds {_RELATIVE_RESIDUAL_LIMIT:.3e}"))
    rho = _states(c)
    reject(below_eig_floor(rho), NonPhysicalResult, lambda k: (
        f"steady state {_at(k, drives)} has eigenvalue {np.linalg.eigvalsh(rho[k])[0]:.3e}"))
    return rho


def max_cyclic_frequency(model: ThreeLevelModel) -> float:
    """Largest frequency scale of the model in cyclic MHz, which bounds the
    integration step: drive amplitudes, |detunings| and the largest rate / 2 pi."""
    return float(max(*map(abs, model.drive.as_tuple()), max(model.rates.as_tuple()) / TWO_PI))


def _taylor_increments(a: np.ndarray, degree: int) -> np.ndarray:
    """Taylor polynomial of exp(A) - I for an (n, 9, 9) stack, with no
    identity term, by Horner's rule X <- (A + A X) / k.  At degree 4 and
    A = dt R it is the classic RK4 step of d c/dt = R c for a constant R.
    Without I, roundoff scales with X, not 1, so relaxed populations are not
    left at ulp(1) / (t * rate); row 0 of R, so of X, is exactly zero."""
    x = a / degree
    for k in range(degree - 1, 0, -1):
        x = (a + a @ x) / k
    return x


def _exp_increments(generators: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(t[k] R[k]) - I by scaling and squaring (Moler & Van Loan, SIAM
    Review 45, 2003; Higham, SIMAX 26, 2005): the Taylor increment X of
    A = t R / 2**s with ||A||_1 <= theta, then s squarings (I + X)**2 - I =
    2X + X^2, each point with its own s, from the binary exponents of t and
    ||R||_1.  Squaring amplifies roundoff about 2**s-fold on weakly damped
    modes; an X that overflows (t ||R||_1 near 1e306) is refused downstream
    as not finite.  With theta = 1/4 the terms past degree 12 sum to at most
    ||A||_1 theta^12 / 13! / (1 - theta / 14) = 9.8e-18 ||A||_1."""
    norm = np.einsum("nij->nj", abs(generators)).max(axis=1)
    s = np.maximum(np.frexp(t)[1] + np.frexp(norm)[1] + 2, 0)  # t ||R||_1 / 2**s < 2**-2
    x = _taylor_increments(np.ldexp(t, -s)[:, None, None] * generators, 12)
    for k in range(s.max(initial=0)):
        x = np.where((s > k)[:, None, None], 2.0 * x + x @ x, x)
    return x


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


def _propagated(increments, n: int, rho0, what: str) -> np.ndarray:
    """Checked states c0 + X[k] c0 for k < n from the checked rho0, with
    ``increments(chunk)`` the X of a slice of points.  Points go ``_CHUNK``
    at a time, so memory stays bounded; where c0 + X[k] c0 is exactly c0 (as
    for X[k] = 0) the state is rho0 itself.  The states are checked in one
    call, the trace to 1e-12 like any input: row 0 of every X is zero, so
    c_0, and with it the trace, is conserved exactly."""
    rho0 = check_density_matrix(rho0)
    c, c0 = np.empty((n, 9, 1)), _coherence_vector(rho0)[:, None]
    for start in range(0, n, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        c[chunk] = c0 + increments(chunk) @ c0
    states = _states(c[:, :, 0])
    states[(c == c0).all(axis=(1, 2))] = rho0
    try:
        check_density_matrix(states)
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

    ``dt`` is the maximum step (ValueError above 1/(50 * f_max), f_max the
    model's largest cyclic frequency scale); the actual step divides t_final
    evenly.  States are recorded every ``record_every`` steps plus the first
    and last, each as its own power of the one step, and checked in one
    call; an error names the first failing state's index.  More than 2**62
    steps raise ValueError.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if not 0.0 <= t_final < math.inf:  # NaN fails too
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    f_max = max_cyclic_frequency(model)
    bound = 1.0 / (50.0 * f_max) if f_max > 0.0 else math.inf
    if not (0.0 < dt < math.inf and dt <= bound * (1.0 + 1e-12)):
        raise ValueError(
            f"dt={dt} us must be positive, finite and at most"
            f" 1/(50*f_max)={bound:.6g} us for f_max={f_max:.6g} MHz"
        )
    n_steps = max(1, math.ceil(t_final / dt - 1e-12)) if t_final > 0.0 else 0
    if n_steps > 2**62:  # exponents are 64-bit
        raise ValueError(f"t_final={t_final} needs more than 2**62 steps of dt")
    dt = t_final / max(n_steps, 1)
    record_idx = np.append(np.arange(0, n_steps, record_every), n_steps)
    generator = _generators(_broadcast(*model.drive.as_tuple()), model.rates.as_tuple())
    step = _taylor_increments(dt * generator, 4)
    states = _propagated(
        lambda chunk: _transfer_power(step, record_idx[chunk]), len(record_idx), rho0, "recorded"
    )
    return Trajectory(times=record_idx * dt, states=states)


def final_states(
    delta_p, delta_c, omega_p, omega_c, rates: DecoherenceRates, rho0, t_final
) -> np.ndarray:
    """(n, 3, 3) stack of the states exp(t_final R) rho0, one per point of
    the drive arrays and t_final broadcast together, under one rate set.
    Each is exact to roundoff (``_exp_increments``) and independent of the
    batch it was computed in.  A drive value or t_final that is not
    finite, or a negative t_final, raises ValueError naming the point by
    its drive values and t_final; a map that overflows, NonPhysicalResult
    naming the state by its index."""
    *drives, t_final = _broadcast(delta_p, delta_c, omega_p, omega_c, t_final)
    reject(t_final < 0.0, ValueError,
           lambda k: f"t_final must be >= 0 {_at(k, [*drives, t_final])}")

    def increments(chunk: slice) -> np.ndarray:
        return _exp_increments(_generators([d[chunk] for d in drives], rates.as_tuple()),
                               t_final[chunk])

    with np.errstate(over="ignore", invalid="ignore"):  # _propagated rejects inf and NaN
        return _propagated(increments, len(t_final), rho0, "final")
