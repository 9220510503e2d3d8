"""Tests for the vectorized Liouvillian, the steady-state solve, the exact
and fixed-step propagators, and the readout maps."""

import math
import re

import numpy as np
import pytest

from atsplit import solver
from atsplit.errors import NonPhysicalResult, SingularLiouvillian
from atsplit.experiments import Observable, readout_signal
from atsplit.model import (
    TWO_PI,
    DecoherenceRates,
    DriveParams,
    ThreeLevelModel,
    rates_from_coherence_times,
)
from atsplit.solver import (
    Trajectory,
    build_liouvillian,
    evolve,
    ket_bra,
    max_cyclic_frequency,
    steady_state,
    steady_states,
    unvectorize,
    vectorize,
)

from conftest import ROOT, load_module, random_density_matrix

TRACE_ROWS = (0, 4, 8)
DRIVE_NAMES = ("delta_p", "delta_c", "omega_p", "omega_c")


def random_model(rng) -> ThreeLevelModel:
    rates = DecoherenceRates(*rng.uniform(0.001, 0.1, 5))
    drive = DriveParams(
        delta_p=rng.uniform(-20, 20),
        delta_c=rng.uniform(-20, 20),
        omega_p=rng.uniform(0, 20),
        omega_c=rng.uniform(0, 20),
    )
    return ThreeLevelModel(drive, rates)


def real_generator(model: ThreeLevelModel) -> np.ndarray:
    """The real 9x9 coherence-vector generator of one model."""
    drives = solver._broadcast(*model.drive.as_tuple())
    return solver._generators(drives, model.rates.as_tuple())[0]


class TestVectorization:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(unvectorize(vectorize(m)), m)

    def test_column_stacking_order(self):
        m = np.arange(9.0).reshape(3, 3)
        v = vectorize(m)
        # column stacking: v[i + 3j] = m[i, j]
        assert v[1] == m[1, 0]
        assert v[3] == m[0, 1]


class TestBuildLiouvillian:
    def test_zero_model_gives_zero_superoperator(self):
        model = ThreeLevelModel(DriveParams(), DecoherenceRates(0, 0, 0, 0, 0))
        assert np.array_equal(build_liouvillian(model), np.zeros((9, 9)))

    def test_trace_rows_annihilate(self):
        """Summing the diagonal-projection rows of L gives zero: Eq.-level
        trace preservation, structurally."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            lsup = build_liouvillian(random_model(rng))
            defect = np.abs(lsup[list(TRACE_ROWS), :].sum(axis=0)).max()
            assert defect <= 1e-12

    def test_trace_annihilation_on_random_hermitian(self):
        rng = np.random.default_rng(2)
        lsup = build_liouvillian(random_model(rng))
        for _ in range(100):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            x = x + x.conj().T
            derivative = unvectorize(lsup @ vectorize(x))
            assert abs(derivative.trace()) <= 1e-12

    def test_population_decay_rate_appears_directly(self, paper_rates):
        """For the undriven system, d rho11/dt from state |1><1| equals
        -gamma_10 (the 2-1 and dephasing channels cannot contribute)."""
        model = ThreeLevelModel(DriveParams(), paper_rates)
        lsup = build_liouvillian(model)
        derivative = lsup @ vectorize(ket_bra(1, 1))
        assert derivative[4].real == pytest.approx(-0.02564102564102564, rel=1e-12)

    def test_hermiticity_preserved_by_generator(self):
        rng = np.random.default_rng(3)
        lsup = build_liouvillian(random_model(rng))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = x + x.conj().T
        out = unvectorize(lsup @ vectorize(x))
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


class TestSteadyState:
    def test_pure_decay_funnels_to_ground(self, paper_rates):
        rho = steady_state(ThreeLevelModel(DriveParams(), paper_rates))
        np.testing.assert_allclose(rho, ket_bra(0, 0), atol=1e-12)

    def test_matches_two_level_closed_form(self, paper_rates):
        """With the coupler off, the 0-1 block must follow the driven
        two-level steady state rho11 = (W^2 g2/2)/(g1 (D^2+g2^2) + W^2 g2)."""
        g1 = paper_rates.gamma_10
        g2 = g1 / 2.0 + paper_rates.phi_1
        w = TWO_PI * 0.186
        for dp in np.linspace(-1.0, 1.0, 41):
            model = ThreeLevelModel(DriveParams(delta_p=dp, omega_p=0.186), paper_rates)
            rho = steady_state(model)
            d = TWO_PI * dp
            expected = (w * w * g2 / 2.0) / (g1 * (d * d + g2 * g2) + w * w * g2)
            assert rho[1, 1].real == pytest.approx(expected, abs=1e-8)
            assert abs(rho[2, 2]) <= 1e-14

    def test_no_dissipation_is_singular(self):
        model = ThreeLevelModel(
            DriveParams(omega_p=1.0, omega_c=2.0), DecoherenceRates(0, 0, 0, 0, 0)
        )
        with pytest.raises(SingularLiouvillian):
            steady_state(model)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "row", range(4), ids=["delta_p", "delta_c", "omega_p", "omega_c"]
    )
    def test_bad_drive_names_the_point(self, paper_rates, row, value):
        """A non-finite drive value is refused at its point, before any
        generator is built (an inf once warned in the matmul, a NaN read
        as a non-unique steady state)."""
        drives = np.tile([[0.3], [-0.2], [0.186], [2.82]], 20)
        drives[row, 13] = value
        point = ", ".join(f"{name}={float(v)!r}" for name, v in zip(DRIVE_NAMES, drives[:, 13]))
        with pytest.raises(ValueError, match=f"^values must be finite at {re.escape(point)}$"):
            steady_states(*drives, paper_rates)

    def test_invariants_on_random_models(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            model = random_model(rng)
            rho = steady_state(model)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert abs(rho.trace() - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10
            residual = np.linalg.norm(build_liouvillian(model) @ vectorize(rho))
            assert residual <= 1e-10

    def test_dephasing_only_relaxes_to_maximally_mixed(self):
        """Pure dephasing is unital, so any driven model with only
        dephasing channels must settle to the identity/3 exactly."""
        rates = DecoherenceRates(gamma_10=0.0, gamma_21=0.0, phi_1=0.02, phi_2=0.05)
        model = ThreeLevelModel(
            DriveParams(delta_p=0.5, delta_c=-0.7, omega_p=3.0, omega_c=0.8), rates
        )
        rho = steady_state(model)
        np.testing.assert_allclose(rho, np.eye(3) / 3.0, atol=1e-14)

    def test_equal_models_give_bit_identical_output(self, paper_rates):
        m1 = ThreeLevelModel(DriveParams(0.3, -0.2, 0.186, 2.82), paper_rates)
        m2 = ThreeLevelModel(DriveParams(0.3, -0.2, 0.186, 2.82), paper_rates)
        assert m1 == m2
        assert np.array_equal(steady_state(m1), steady_state(m2))

    def test_detuning_symmetry_at_zero_coupler_detuning(self, paper_rates):
        """PaSum of the steady state is even in delta_p when delta_c = 0."""
        for omega_c in (0.707, 2.82):
            for dp in (0.13, 0.5, 1.7):
                plus = steady_state(
                    ThreeLevelModel(DriveParams(dp, 0.0, 0.186, omega_c), paper_rates)
                )
                minus = steady_state(
                    ThreeLevelModel(DriveParams(-dp, 0.0, 0.186, omega_c), paper_rates)
                )
                pa_plus = readout_signal(plus, Observable.PA_SUM)
                pa_minus = readout_signal(minus, Observable.PA_SUM)
                assert pa_plus == pytest.approx(pa_minus, abs=1e-10)


class TestSpectrumOracle:
    """The Liouvillian spectrum is a ground truth independent of the kernel."""

    def test_steady_state_is_the_null_vector(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            model = random_model(rng)
            evals, evecs = np.linalg.eig(build_liouvillian(model))
            null = unvectorize(evecs[:, np.argmin(np.abs(evals))])
            np.testing.assert_allclose(steady_state(model), null / null.trace(), rtol=0, atol=1e-10)

    def test_dressed_splitting_without_dissipation(self):
        """With no rates and no detunings the largest Bohr frequency of the
        dressed ladder is sqrt(omega_p^2 + omega_c^2)."""
        rng = np.random.default_rng(16)
        for _ in range(20):
            omega_p, omega_c = rng.uniform(0.01, 20.0, 2)
            model = ThreeLevelModel(
                DriveParams(omega_p=omega_p, omega_c=omega_c), DecoherenceRates(0, 0, 0, 0, 0)
            )
            largest = np.abs(np.linalg.eigvals(build_liouvillian(model)).imag).max() / TWO_PI
            assert largest == pytest.approx(math.hypot(omega_p, omega_c), rel=1e-9)


def _load_bench_check():
    """``bench/check.py``, loaded by path after the ``workloads`` it imports."""
    load_module(ROOT / "bench" / "workloads.py")
    return load_module(ROOT / "bench" / "check.py")


def _kron_draws(rng, n: int):
    """n random T1 (1 to 100 us), T2* (0.05 to 2 T1), ratio_21 and drives
    for the comparisons with ``bench/check.py``."""
    t1 = rng.uniform(1.0, 100.0, n)
    t2_star, ratio_21 = rng.uniform(0.05, 2.0, n) * t1, rng.uniform(0.5, 3.0, n)
    dp, dc = rng.uniform(-10.0, 10.0, (2, n))
    wp, wc = rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 20.0, n)
    return t1, t2_star, ratio_21, dp, dc, wp, wc


class TestKronReference:
    """``bench/check.py`` builds the column-stacked generator from T1, T2*
    and ratio_21 with ``np.kron``, solves it densely with the trace row and
    propagates it exactly from its eigendecomposition.  It shares no code
    with ``_GENERATORS``, so an error in that table, which ``evolve`` and
    ``build_liouvillian`` would share, shows here."""

    def test_steady_states_match_the_kron_reference(self):
        """50 random coherence times and drives, solved as one batch with a
        rate row per point, agree with the reference within its tolerance,
        1e-10 + 64 eps cond(A)."""
        check, rng = _load_bench_check(), np.random.default_rng(31)
        t1, t2_star, ratio_21, dp, dc, wp, wc = _kron_draws(rng, 50)
        rows = [rates_from_coherence_times(*times).as_tuple()
                for times in zip(t1, t2_star, ratio_21)]
        states = steady_states(dp, dc, wp, wc, np.array(rows))
        for k, state in enumerate(states):
            physics = check.Physics(t1[k], t2_star[k], ratio_21[k], wp[k], "steady", "pa_sum")
            expected, cond = check.steady_rho(check.liouvillian(physics, dp[k], dc[k], wc[k]))
            tolerance = 1e-10 + 64.0 * np.finfo(float).eps * cond
            np.testing.assert_allclose(state, expected, rtol=0.0, atol=tolerance)

    def test_liouvillian_matches_the_kron_build_entry_by_entry(self):
        """At 50 random coherence times and drives every entry of
        ``build_liouvillian`` is the reference's within 64 eps of the
        largest entry (measured: 2.5 eps)."""
        check, rng = _load_bench_check(), np.random.default_rng(32)
        for t1, t2_star, ratio_21, dp, dc, wp, wc in zip(*_kron_draws(rng, 50)):
            model = ThreeLevelModel(DriveParams(dp, dc, wp, wc),
                                    rates_from_coherence_times(t1, t2_star, ratio_21))
            physics = check.Physics(t1, t2_star, ratio_21, wp, "steady", "pa_sum")
            expected = check.liouvillian(physics, dp, dc, wc)
            tolerance = 64.0 * np.finfo(float).eps * np.abs(expected).max()
            np.testing.assert_allclose(build_liouvillian(model), expected, rtol=0.0, atol=tolerance)

    def test_final_states_match_the_exact_propagator(self):
        """20 random coherence times and drives, each pulsed from a random
        state for five random durations up to 10 us: ``final_states`` agrees
        with the reference's exp(tL) to 1e-10 (measured: 1.4e-13)."""
        check, rng = _load_bench_check(), np.random.default_rng(33)
        for t1, t2_star, ratio_21, dp, dc, wp, wc in zip(*_kron_draws(rng, 20)):
            rho0, times = random_density_matrix(rng), rng.uniform(0.0, 10.0, 5)
            states = solver.final_states(dp, dc, wp, wc,
                                         rates_from_coherence_times(t1, t2_star, ratio_21),
                                         rho0, times)
            physics = check.Physics(t1, t2_star, ratio_21, wp, "steady", "pa_sum")
            lsup = check.liouvillian(physics, dp, dc, wc)
            for t, state in zip(times, states):
                np.testing.assert_allclose(state, check.propagate(lsup, rho0, t),
                                           rtol=0.0, atol=1e-10)


class TestTraceRow:
    """Row 0 stays exact, so the propagated trace needs no correction."""

    def test_generator_and_long_power_keep_row_zero_exact(self):
        rng = np.random.default_rng(17)
        models = [random_model(rng) for _ in range(20)]
        generators = np.array([real_generator(m) for m in models])
        assert not generators[:, 0, :].any()
        step = solver._taylor_increments(step_bounds(models)[:, None, None] * generators, 4)
        power = solver._transfer_power(step, np.full(len(models), 10**12))
        # Both are increments over I: the maps' row 0 is exactly e_0.
        assert not step[:, 0, :].any() and not power[:, 0, :].any()

    @pytest.mark.parametrize("t_final", [1e12, 1e300])
    def test_exact_increments_keep_row_zero_exact_at_any_time(self, t_final):
        rng = np.random.default_rng(18)
        generators = np.array([real_generator(random_model(rng)) for _ in range(20)])
        x = solver._exp_increments(generators, np.full(20, t_final))
        assert np.isfinite(x).all() and not x[:, 0, :].any()


def constrained_system(model: ThreeLevelModel) -> np.ndarray:
    """The trace-constrained 9x9 matrix the steady-state kernel inverts."""
    matrix = build_liouvillian(model).copy()
    matrix[0, :] = 0.0
    matrix[0, list(TRACE_ROWS)] = 1.0
    return matrix


def gate_models() -> list[ThreeLevelModel]:
    """200 random models, then 20 of them with every rate scaled down
    through 1e-4 ... 1e-16 and 0: a family that crosses the condition limit."""
    rng = np.random.default_rng(4)
    models = [random_model(rng) for _ in range(200)]
    for base in models[:20]:
        for scale in [*np.logspace(-4, -16, 25), 0.0]:
            rates = DecoherenceRates(*(scale * r for r in base.rates.as_tuple()))
            models.append(ThreeLevelModel(base.drive, rates))
    return models


class TestConditionGate:
    """The kernel gates on the 1-norm condition number; the SVD-based
    2-norm condition number is the reference it must be at least as strict
    as: every system with kappa_2 > 1e12 is rejected."""

    def test_random_models_and_vanishing_rates(self):
        models = gate_models()
        rejected = 0
        for model in models:
            kappa_2 = np.linalg.cond(constrained_system(model))
            if not kappa_2 <= 1e12:
                rejected += 1
                with pytest.raises(SingularLiouvillian):
                    steady_state(model)
        assert rejected >= 20 * 15  # the family crosses the limit near 1e-9


def coherence_system(model: ThreeLevelModel) -> np.ndarray:
    """The real 9x9 matrix the steady-state kernel inverts and gates on."""
    matrix = real_generator(model).copy()
    matrix[0, 0] = 1.0
    return matrix


class TestGateProof:
    """The chain behind the kernel's limit: A = E (L + t t^T/3) with
    kappa_2(E) = 3, and L + t t^T/3 unitarily similar to the coherence
    system B, so kappa_2(A) <= 3 kappa_2(B) <= 27 kappa_1(B)."""

    t = np.isin(np.arange(9), TRACE_ROWS).astype(float)
    e0 = np.eye(9)[0]
    E = np.eye(9) - np.outer(e0, e0) - np.outer(t, t) / 3.0 + 4.0 / 3.0 * np.outer(e0, t)

    def test_factor_has_condition_three(self):
        assert np.linalg.cond(self.E) == pytest.approx(3.0, rel=1e-12)

    def test_constrained_system_factors(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            model = random_model(rng)
            a = constrained_system(model)
            factored = self.E @ (build_liouvillian(model) + np.outer(self.t, self.t) / 3.0)
            assert np.abs(factored - a).max() <= 1e-12 * np.abs(a).max()

    def test_bound_holds_on_the_gate_models(self):
        models = gate_models()
        for model in models:
            with np.errstate(all="ignore"):
                kappa_1 = np.linalg.cond(coherence_system(model), 1)
            assert np.linalg.cond(constrained_system(model)) <= 27.0 * kappa_1

    def test_block_inverse_gives_the_full_inverse_gate(self):
        """B = [[1, 0], [r, M]] has B^-1 = [[1, 0], [-M^-1 r, M^-1]], so
        ||B^-1||_1 = max(1 + ||M^-1 r||_1, ||M^-1||_1).  On the gate models,
        and on 20 of them with rates scaled up 1e11-fold, that 8x8 form of
        kappa_1(B) and the 9x9 inverse's agree to roundoff and reject the
        same points, and so does the kernel, by its condition or
        singularity message, never by its residual gate."""

        def norm_1(x):
            return np.abs(x).sum(axis=0).max()

        def kappa_1(b, from_block):
            try:
                if not from_block:
                    return norm_1(b) * norm_1(np.linalg.inv(b))
                m_inv = np.linalg.inv(b[1:, 1:])
                return norm_1(b) * max(1.0 + np.abs(m_inv @ b[1:, 0]).sum(), norm_1(m_inv))
            except np.linalg.LinAlgError:
                return math.inf

        models = gate_models()
        # Rates near 1e9 / us: there column 0 of B^-1 sets ||B^-1||_1, and
        # with it the gate's verdict.
        for base in models[:20]:
            rates = DecoherenceRates(*(1e11 * r for r in base.rates.as_tuple()))
            models.append(ThreeLevelModel(base.drive, rates))
        full, blocked, kernel = [], [], []
        for model in models:
            b = coherence_system(model)
            with np.errstate(all="ignore"):
                full.append(kappa_1(b, from_block=False))
                blocked.append(kappa_1(b, from_block=True))
            try:
                steady_state(model)
                kernel.append(False)
            except SingularLiouvillian as exc:
                assert not str(exc).startswith("steady-state residual"), exc
                kernel.append(str(exc).startswith("steady state not unique"))
            except NonPhysicalResult:
                kernel.append(False)
        full, blocked = np.array(full), np.array(blocked)
        rejected = ~(full <= solver._COND_LIMIT / 27.0)
        assert rejected[:720].sum() == 391 and rejected[720:].sum() == 20
        assert np.array_equal(~(blocked <= solver._COND_LIMIT / 27.0), rejected)
        assert np.array_equal(np.array(kernel), rejected)
        finite = np.isfinite(full) & np.isfinite(blocked)
        assert finite.sum() >= 650
        np.testing.assert_allclose(blocked[finite], full[finite], rtol=1e-12)

    def test_exactly_singular_block_names_the_point(self):
        """Undriven, with dephasing alone, the populations' rows and columns
        of M are zero: its inverse fails, and the error names that point by
        its drive values."""
        rates = DecoherenceRates(gamma_10=0.0, gamma_21=0.0, phi_1=0.02, phi_2=0.05)
        message = ("steady state not unique at delta_p=0.5, delta_c=0.3, "
                   "omega_p=0.0, omega_c=0.0: singular")
        with pytest.raises(SingularLiouvillian, match=f"^{re.escape(message)}$"):
            steady_states([-0.5, 0.5], 0.3, [0.5, 0.0], [1.5, 0.0], rates)


class TestChunking:
    def test_chunked_batch_matches_single_points_bitwise(self, paper_rates, monkeypatch):
        monkeypatch.setattr(solver, "_CHUNK", 7)
        rng = np.random.default_rng(8)
        dp, dc = rng.uniform(-5, 5, 40), rng.uniform(-5, 5, 40)
        wp, wc = rng.uniform(0.05, 3, 40), rng.uniform(0, 6, 40)
        batch = steady_states(dp, dc, wp, wc, paper_rates)
        singles = np.array([
            steady_state(ThreeLevelModel(DriveParams(*point), paper_rates))
            for point in zip(dp, dc, wp, wc)
        ])
        assert batch.shape == (40, 3, 3)
        assert batch.tobytes() == singles.tobytes()

    def test_rate_rows_match_single_rate_sets_bitwise(self, paper_rates, monkeypatch):
        """One rate row per point solves each point as its own rate set
        does; a rate row that is negative or not finite is refused by its
        point's drive values."""
        monkeypatch.setattr(solver, "_CHUNK", 7)
        rng = np.random.default_rng(9)
        dp, wc = rng.uniform(-5, 5, 40), rng.uniform(0, 6, 40)
        rows = np.array(paper_rates.as_tuple()) * rng.uniform(0.0, 2.0, (40, 1))
        batch = steady_states(dp, 0.3, 0.5, wc, rows)
        singles = np.array([
            steady_state(ThreeLevelModel(DriveParams(p, 0.3, 0.5, c), DecoherenceRates(*r)))
            for p, c, r in zip(dp, wc, rows)
        ])
        assert batch.tobytes() == singles.tobytes()
        for bad in (-1e-3, math.nan):
            rows[13, 1] = bad
            point = re.escape(f"delta_p={float(dp[13])!r}, delta_c=0.3, omega_p=0.5, "
                              f"omega_c={float(wc[13])!r}")
            with pytest.raises(ValueError, match=f"^rates must be finite and >= 0 at {point}, got"):
                steady_states(dp, 0.3, 0.5, wc, rows)

    @pytest.mark.parametrize("k, amplitude", [(23, 0.0), (30, 1e-9)])
    def test_error_in_later_chunk_names_global_index(self, monkeypatch, k, amplitude):
        """Dephasing alone leaves the populations of an undriven point
        undetermined: exactly singular without drive, ill conditioned with a
        vanishing one.  The error names that point of a later chunk by its
        four drive values."""
        monkeypatch.setattr(solver, "_CHUNK", 7)
        rates = DecoherenceRates(gamma_10=0.0, gamma_21=0.0, phi_1=0.02, phi_2=0.05)
        dp, wp, wc = np.linspace(-1.0, 1.0, 40), np.full(40, 0.5), np.full(40, 1.5)
        wp[k] = wc[k] = amplitude
        point = (f"at delta_p={float(dp[k])!r}, delta_c=0.3, "
                 f"omega_p={amplitude!r}, omega_c={amplitude!r}: ")
        with pytest.raises(SingularLiouvillian, match=re.escape(point)):
            steady_states(dp, 0.3, wp, wc, rates)

    def test_residual_gate_names_the_point(self, paper_rates, monkeypatch):
        """With the relative residual ceiling at 0.0 roundoff alone fails the
        gate, which names the point by its drive values and gives the limit."""
        monkeypatch.setattr(solver, "_RELATIVE_RESIDUAL_LIMIT", 0.0)
        point = "delta_p=0.3, delta_c=-0.2, omega_p=0.186, omega_c=2.82"
        match = (rf"^steady-state residual \d\.\d{{3}}e-\d+ at {re.escape(point)}"
                 rf" exceeds 0\.000e\+00$")
        with pytest.raises(SingularLiouvillian, match=match):
            steady_states(0.3, -0.2, 0.186, 2.82, paper_rates)

    def test_residual_gate_refuses_a_state_moved_by_1e_6(self, paper_rates, monkeypatch):
        """Each entry of every inverse moved by 1e-6 relative moves each
        solved state further than one refinement step with that inverse
        brings it back: the relative residual gate refuses it (eta near
        4.4e-13), naming the first point.  The largest relative residual of
        a solved state is 0.46 eps."""
        monkeypatch.setattr(np.linalg, "inv", _moved_inverses(1e-6))
        point = "delta_p=0.3, delta_c=-0.2, omega_p=0.186, omega_c=2.82"
        match = (rf"^steady-state residual \d\.\d{{3}}e-1[23] at {re.escape(point)}"
                 rf" exceeds 1\.421e-14$")
        with pytest.raises(SingularLiouvillian, match=match):
            steady_states([0.3, -2.0], -0.2, 0.186, [2.82, 50.0], paper_rates)

    def test_refinement_corrects_an_inverse_moved_by_1e_9(self, paper_rates, monkeypatch):
        """Every inverse moved by 1e-9 relative: one refinement step brings
        each state of three paper slices back to within 1e-15 of the unmoved
        solve (measured 5.6e-16).  Without the step their eta is 5.8e-11,
        over 4,000 times the limit."""
        dp, wc = np.tile(np.linspace(-5.0, 5.0, 401), 3), np.repeat([0.354, 2.82, 11.2], 401)
        expected = steady_states(dp, 0.0, 0.186, wc, paper_rates)
        monkeypatch.setattr(np.linalg, "inv", _moved_inverses(1e-9))
        np.testing.assert_allclose(steady_states(dp, 0.0, 0.186, wc, paper_rates), expected,
                                   rtol=0.0, atol=1e-15)

    def test_ill_conditioned_slices_pass_one_residual_limit(self, paper_rates):
        """Without 1 -> 0 decay, probe slices over +-20 MHz have kappa_1(B)
        up to 1.9e8.  The refined solve keeps their relative residuals
        below 0.19 eps, so the one 64 eps limit solves them all."""
        rates = DecoherenceRates(0.0, *paper_rates.as_tuple()[1:])
        dp, wc = np.tile(np.linspace(-20.0, 20.0, 201), 3), np.repeat([0.354, 2.82, 11.2], 201)
        assert steady_states(dp, 0.0, 0.186, wc, rates).shape == (603, 3, 3)

    @pytest.mark.parametrize("scale", [1e7, 1e8])
    def test_large_rates_pass_the_residual_gate(self, scale):
        """The 200 random gate models with every rate scaled up: the relative
        residual stays at roundoff, so none is refused (an absolute 1e-10
        limit refused 69 and 153 of them), and each state agrees with the
        trace-constrained dense solve of ``bench/check.py``'s reference
        within its tolerance, 1e-10 + 64 eps cond(A)."""
        rhs = np.eye(9)[0]
        for base in gate_models()[:200]:
            model = ThreeLevelModel(base.drive, DecoherenceRates(
                *(scale * r for r in base.rates.as_tuple())))
            a = constrained_system(model)
            expected = unvectorize(np.linalg.solve(a, rhs))
            tolerance = 1e-10 + 64.0 * np.finfo(float).eps * np.linalg.cond(a)
            np.testing.assert_allclose(steady_state(model), expected, rtol=0.0, atol=tolerance)

    def test_residual_gate_names_the_first_failing_point_not_the_worst(self, paper_rates,
                                                                       monkeypatch):
        """Like every gate, the residual gate names the first point above its
        limit.  Point 0's roundoff residual is nonzero but below that of the
        50 MHz coupler at point 1."""
        monkeypatch.setattr(solver, "_RELATIVE_RESIDUAL_LIMIT", 0.0)
        point = "delta_p=0.3, delta_c=-0.2, omega_p=0.186, omega_c=2.82"
        with pytest.raises(SingularLiouvillian, match=f" at {re.escape(point)} exceeds"):
            steady_states([0.3, -2.0], -0.2, 0.186, [2.82, 50.0], paper_rates)

    def test_positivity_error_names_first_failing_point(self, paper_rates, monkeypatch):
        """The kernel's own floor gate names the first non-positive state of
        a later chunk by its drive values, worded with its lowest eigenvalue."""
        monkeypatch.setattr(solver, "_CHUNK", 7)
        states, calls = solver._states, []

        def corrupt_second_chunk(c):
            rho = states(c)
            calls.append(len(rho))
            if len(calls) == 2:
                rho[3], rho[5] = np.diag([1.1, -0.1, 0.0]), np.diag([1.3, -0.3, 0.0])
            return rho

        monkeypatch.setattr(solver, "_states", corrupt_second_chunk)
        dp = np.linspace(-1.0, 1.0, 40)
        point = f"delta_p={float(dp[10])!r}, delta_c=0.0, omega_p=0.5, omega_c=1.5"
        message = f"steady state at {point} has eigenvalue -1.000e-01"
        with pytest.raises(NonPhysicalResult, match=re.escape(message)):
            steady_states(dp, 0.0, 0.5, 1.5, paper_rates)

    def test_first_failing_point_is_named_across_the_three_gates(self, monkeypatch):
        """With |1> dephasing as the only rate, point 2 (delta_p + delta_c = 0)
        fails the condition gate.  Pushed below the eigenvalue floor, point 0
        fails the positivity gate, and it is named: the gates of a chunk name
        the first point that fails any of them."""
        args = ([0.3, 0.5, 1.0], [0.1, 0.2, -1.0], 0.2, 0.3,
                DecoherenceRates(0.0, 0.0, phi_1=0.02))
        with pytest.raises(SingularLiouvillian, match="^steady state not unique at delta_p=1.0,"):
            steady_states(*args)
        states = solver._states

        def below_floor_at_point_0(c):
            rho = states(c)
            rho[0] = np.diag([1.1, -0.1, 0.0])
            return rho

        monkeypatch.setattr(solver, "_states", below_floor_at_point_0)
        message = ("steady state at delta_p=0.3, delta_c=0.1, omega_p=0.2, omega_c=0.3"
                   " has eigenvalue -1.000e-01")
        with pytest.raises(NonPhysicalResult, match=f"^{re.escape(message)}$"):
            steady_states(*args)


def _moved_inverses(size: float):
    """``np.linalg.inv`` with each entry of every inverse moved by ``size``
    relative, up or down at random (seeded)."""
    inverse, rng = np.linalg.inv, np.random.default_rng(27)
    return lambda m: (x := inverse(m)) * (1.0 + size * rng.choice([-1.0, 1.0], x.shape))


def _drifted(states):
    """``solver._states`` with every trace moved by 1e-11."""
    return lambda c: states(c) * (1.0 + 1e-11)


class TestEvolve:
    def test_t1_decay(self, paper_rates):
        model = ThreeLevelModel(DriveParams(), paper_rates)
        dt = 1.0 / (50.0 * max_cyclic_frequency(model))
        traj = evolve(model, ket_bra(1, 1), 39.0, dt)
        assert traj.final_state()[1, 1].real == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_long_time_limit_equals_steady_state(self, paper_rates):
        model = ThreeLevelModel(DriveParams(0.0, 0.0, 0.186, 11.2), paper_rates)
        dt = 1.0 / (50.0 * max_cyclic_frequency(model))
        traj = evolve(model, ket_bra(0, 0), 2000.0, dt, record_every=10**9)
        np.testing.assert_allclose(traj.final_state(), steady_state(model), atol=1e-6)

    def test_zero_generator_gives_constant_trajectory(self):
        model = ThreeLevelModel(DriveParams(), DecoherenceRates(0, 0, 0, 0, 0))
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        traj = evolve(model, rho0, 5.0, 0.5)
        for state in traj.states:
            np.testing.assert_allclose(state, rho0, atol=1e-14)

    def test_step_bound_enforced(self, paper_rates):
        model = ThreeLevelModel(DriveParams(omega_p=10.0), paper_rates)
        bound = 1.0 / (50.0 * max_cyclic_frequency(model))
        with pytest.raises(ValueError, match="must be positive, finite and at most"):
            evolve(model, ket_bra(0, 0), 1.0, 2.0 * bound)
        with pytest.raises(ValueError, match="must be positive, finite and at most"):
            evolve(model, ket_bra(0, 0), 1.0, 0.0)
        evolve(model, ket_bra(0, 0), 1.0, bound)  # at the bound is fine

    def test_rate_scale_enters_step_bound(self):
        rates = DecoherenceRates(gamma_10=TWO_PI * 10.0, gamma_21=0.0)
        model = ThreeLevelModel(DriveParams(), rates)
        assert max_cyclic_frequency(model) == pytest.approx(10.0)

    def test_invalid_initial_state_rejected(self, paper_rates):
        model = ThreeLevelModel(DriveParams(), paper_rates)
        with pytest.raises(NonPhysicalResult):
            evolve(model, np.diag([0.7, 0.7, -0.4]), 1.0, 0.01)

    def test_record_times_and_count(self, paper_rates):
        model = ThreeLevelModel(DriveParams(), paper_rates)
        traj = evolve(model, ket_bra(0, 0), 1.0, 0.01, record_every=10)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.states) == len(traj.times)

    def test_zero_duration(self, paper_rates):
        model = ThreeLevelModel(DriveParams(), paper_rates)
        traj = evolve(model, ket_bra(1, 1), 0.0, 0.1)
        assert len(traj.times) == 1
        np.testing.assert_allclose(traj.states[0], ket_bra(1, 1))

    def test_expectation_tracks_population_decay(self, paper_rates):
        model = ThreeLevelModel(DriveParams(), paper_rates)
        traj = evolve(model, ket_bra(1, 1), 10.0, 0.5, record_every=5)
        population = traj.states[:, 1, 1].real
        expected = np.exp(-paper_rates.gamma_10 * traj.times)
        np.testing.assert_allclose(population, expected, atol=1e-6)

    def test_recorded_states_are_checked(self, paper_rates, monkeypatch):
        """Propagated states get the 1e-12 trace tolerance of inputs: a
        drift of 1e-11 fails.  State 0 is rho0 itself, so state 1 is named."""
        monkeypatch.setattr(solver, "_states", _drifted(solver._states))
        model = ThreeLevelModel(DriveParams(omega_p=0.186), paper_rates)
        with pytest.raises(NonPhysicalResult, match="recorded density matrix 1 of 11 trace"):
            evolve(model, ket_bra(0, 0), 1.0, 0.01, record_every=10)

    def test_error_names_the_failing_state(self, paper_rates, monkeypatch):
        """A recorded state pushed out of the physical set is named by its
        index in the trajectory, not by the first state of the stack."""
        states = solver._states

        def corrupt_fourth(c):
            rho = states(c)
            rho[3] *= 1.5
            return rho

        monkeypatch.setattr(solver, "_states", corrupt_fourth)
        model = ThreeLevelModel(DriveParams(omega_p=0.186), paper_rates)
        with pytest.raises(NonPhysicalResult, match="recorded density matrix 3 of 11 trace"):
            evolve(model, ket_bra(0, 0), 1.0, 0.01, record_every=10)

    def test_trace_drift_stays_small_on_long_runs(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = random_model(rng)
            t_final = 20.0 / min(r for r in model.rates.as_tuple() if r > 0.0)
            dt = 1.0 / (50.0 * max_cyclic_frequency(model))
            traj = evolve(model, random_density_matrix(rng), t_final, dt, record_every=10**9)
            assert abs(traj.final_state().trace() - 1.0) < 1e-12

    def test_step_count_beyond_int64_rejected(self, paper_rates):
        """Exponents are 64-bit, so a count that would wrap is refused."""
        model = ThreeLevelModel(DriveParams(omega_p=0.186), paper_rates)
        with pytest.raises(ValueError, match="2\\*\\*62 steps"):
            evolve(model, ket_bra(1, 1), 1e300, 0.01)

    @pytest.mark.parametrize("propagate", ["evolve", "final_states"])
    def test_non_finite_initial_state_rejected(self, paper_rates, propagate):
        model = ThreeLevelModel(DriveParams(omega_p=0.186), paper_rates)
        rho0 = np.diag([math.inf, 0.0, 0.0])
        with pytest.raises(NonPhysicalResult, match="not finite"):
            if propagate == "evolve":
                evolve(model, rho0, 1.0, 0.01)
            else:
                solver.final_states(*model.drive.as_tuple(), model.rates, rho0, 1.0)

    @pytest.mark.parametrize(
        "t_final, dt, error, match",
        [
            (1.0, math.nan, ValueError, "^dt="),
            (1.0, math.inf, ValueError, "^dt="),
            (1.0, -0.01, ValueError, "^dt="),
            (math.nan, 0.01, ValueError, "t_final must be finite"),
            (math.inf, 0.01, ValueError, "t_final must be finite"),
            (-math.inf, 0.01, ValueError, "t_final must be finite"),
        ],
    )
    def test_non_finite_arguments_rejected(self, paper_rates, t_final, dt, error, match):
        model = ThreeLevelModel(DriveParams(omega_p=0.186), paper_rates)
        with pytest.raises(error, match=match):
            evolve(model, ket_bra(0, 0), t_final, dt)

    def test_trajectory_requires_one_state_per_time(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(times=np.arange(3.0), states=np.zeros((2, 3, 3), dtype=complex))

    def test_trajectory_requires_increasing_times(self):
        states = np.zeros((2, 3, 3), dtype=complex)
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(times=np.array([1.0, 0.5]), states=states)


def shared_rate_models(rng, n: int) -> list[ThreeLevelModel]:
    """Random drives over one rate set; mixed |delta_c| spreads the generator norms."""
    rates = DecoherenceRates(*rng.uniform(0.001, 0.1, 5))
    return [
        ThreeLevelModel(
            DriveParams(
                delta_p=rng.uniform(-1, 1),
                delta_c=rng.choice([-1.0, 1.0]) * rng.uniform(0, 10) ** rng.uniform(0, 2),
                omega_p=rng.uniform(0, 2),
                omega_c=rng.uniform(0, 4),
            ),
            rates,
        )
        for _ in range(n)
    ]


def step_bounds(models) -> np.ndarray:
    return np.array([1.0 / (50.0 * max_cyclic_frequency(m)) for m in models])


def batch_final_states(models, rho0, t_final) -> np.ndarray:
    """``final_states`` over the drive rows of models that share one rate set."""
    drives = np.array([m.drive.as_tuple() for m in models]).T
    return solver.final_states(*drives, models[0].rates, rho0, t_final)


class TestFinalStates:
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize(
        "t_final",
        [
            0.0,
            0.37,
            2.5,
            pytest.param(np.linspace(0.0, 2.5, 20), id="per-point-ramp"),
            pytest.param(np.tile([0.37, 0.0], 10), id="per-point-zeros"),
        ],
    )
    def test_matches_single_evolutions_bitwise(self, monkeypatch, chunk, t_final):
        """Each point equals its own single-point propagation, bit for bit,
        whatever the chunk size; a zero duration returns rho0 itself."""
        if chunk is not None:
            monkeypatch.setattr(solver, "_CHUNK", chunk)
        rng = np.random.default_rng(9)
        models = shared_rate_models(rng, 20)
        rho0 = random_density_matrix(rng)
        stacked = batch_final_states(models, rho0, t_final)
        t_final = np.broadcast_to(t_final, len(models))
        singles = np.array([batch_final_states([m], rho0, t)[0] for m, t in zip(models, t_final)])
        assert stacked.shape == (20, 3, 3)
        assert np.array_equal(stacked, singles)
        assert (stacked[t_final == 0.0] == rho0).all()

    def test_zero_generator_returns_rho0_exactly(self):
        """With no drive and no rates exp(t R) = I at every duration."""
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rates = DecoherenceRates(0.0, 0.0)
        states = solver.final_states(0.0, 0.0, 0.0, 0.0, rates, rho0, [2.5, 1e300])
        assert np.array_equal(states, [rho0, rho0])

    def test_zero_rates_match_two_level_rabi_closed_form(self):
        """Without dissipation a probe (coupler) pulse from |0> (|1>) is a
        two-level Rabi oscillation: P = W^2/(W^2 + d^2) sin^2(pi sqrt(W^2 + d^2) t)."""
        rates = DecoherenceRates(0.0, 0.0)
        t = np.linspace(0.0, 12.0, 97)
        for omega, delta in [(0.186, 0.0), (0.186, 0.1), (2.82, 0.0), (2.82, -3.0)]:
            w2 = omega**2 + delta**2
            expected = omega**2 / w2 * np.sin(np.pi * math.sqrt(w2) * t) ** 2
            probe = solver.final_states(delta, 0.0, omega, 0.0, rates, ket_bra(0, 0), t)
            coupler = solver.final_states(0.0, delta, 0.0, omega, rates, ket_bra(1, 1), t)
            np.testing.assert_allclose(probe[:, 1, 1].real, expected, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(coupler[:, 2, 2].real, expected, rtol=0.0, atol=1e-12)

    def test_free_decay_matches_exponential(self, paper_rates):
        t = np.linspace(0.0, 5.0 / paper_rates.gamma_10, 101)
        states = solver.final_states(0.0, 0.0, 0.0, 0.0, paper_rates, ket_bra(1, 1), t)
        expected = np.exp(-paper_rates.gamma_10 * t)
        np.testing.assert_allclose(states[:, 1, 1].real, expected, rtol=1e-13, atol=0.0)

    def test_matches_liouvillian_eigendecomposition(self):
        """exp(t L) = V diag(exp(t w)) V^-1 on diagonalizable random models,
        the reference of ``bench/check.py``."""
        rng = np.random.default_rng(15)
        models = shared_rate_models(rng, 30)
        rho0 = random_density_matrix(rng)
        t_final = rng.uniform(0.0, 5.0, len(models))
        stacked = batch_final_states(models, rho0, t_final)
        for model, t, state in zip(models, t_final, stacked):
            w, v = np.linalg.eig(build_liouvillian(model))
            assert np.linalg.cond(v) < 1e3  # diagonalizable, well conditioned
            exact = unvectorize(v @ (np.exp(t * w) * np.linalg.solve(v, vectorize(rho0))))
            np.testing.assert_allclose(state, exact, rtol=0.0, atol=1e-12)

    def test_agrees_with_evolve_within_the_rk4_bound(self):
        """RK4 at dt = 1/(200 f_max) has a global error of about
        t |lambda| (dt |lambda|)^4 / 120 for the largest |lambda| of L."""
        rng = np.random.default_rng(16)
        models = shared_rate_models(rng, 12)
        rho0 = random_density_matrix(rng)
        t_final = rng.uniform(0.5, 5.0, len(models))
        stacked = batch_final_states(models, rho0, t_final)
        for model, t, state in zip(models, t_final, stacked):
            dt = 1.0 / (200.0 * max_cyclic_frequency(model))
            rk4 = evolve(model, rho0, t, dt, record_every=10**9).final_state()
            lam = np.abs(np.linalg.eigvals(build_liouvillian(model))).max()
            assert np.abs(state - rk4).max() <= t * lam * (dt * lam) ** 4 / 120.0

    @pytest.mark.parametrize(
        "row, value",
        [(1, math.inf), (1, -math.inf), (1, math.nan), (4, math.nan)],
        ids=["inf", "-inf", "nan", "nan-t_final"],
    )
    def test_bad_step_names_the_point(self, paper_rates, row, value):
        """A non-finite drive value or duration is refused at its point."""
        rng = np.random.default_rng(10)
        drives = np.array([m.drive.as_tuple() for m in shared_rate_models(rng, 20)]).T
        args = np.concatenate([drives, np.full((1, 20), 0.5)])
        args[row, 13] = value
        names = [*DRIVE_NAMES, "t_final"]
        point = ", ".join(f"{name}={float(v)!r}" for name, v in zip(names, args[:, 13]))
        with pytest.raises(ValueError, match=f"^values must be finite at {re.escape(point)}$"):
            solver.final_states(*args[:4], paper_rates, ket_bra(1, 1), args[4])

    def test_overflowing_squarings_raise_the_named_error(self, paper_rates):
        """At t ||R|| near 1e306 the squarings amplify roundoff past the
        double range: the states are refused as not finite, with no numpy
        warning first (pytest turns warnings into errors)."""
        with pytest.raises(NonPhysicalResult, match="final density matrix 0 of 3 not finite"):
            solver.final_states(
                0.0, [-7.0, 0.0, 7.0], 0.0, 1e306, paper_rates, ket_bra(1, 1), 0.177
            )

    def test_final_states_checked_in_one_call(self, monkeypatch):
        calls = []
        check = solver.check_density_matrix

        def counting(rho, **kwargs):
            calls.append(np.shape(rho))
            return check(rho, **kwargs)

        monkeypatch.setattr(solver, "check_density_matrix", counting)
        models = shared_rate_models(np.random.default_rng(12), 30)
        batch_final_states(models, ket_bra(1, 1), 0.5)
        assert calls == [(3, 3), (30, 3, 3)]

    def test_drifted_final_state_is_named(self, monkeypatch):
        monkeypatch.setattr(solver, "_states", _drifted(solver._states))
        models = shared_rate_models(np.random.default_rng(13), 4)
        with pytest.raises(NonPhysicalResult, match="final density matrix 0 of 4 trace"):
            batch_final_states(models, ket_bra(1, 1), 0.5)


class TestReadout:
    def test_ground_state_reads_zero(self):
        assert readout_signal(ket_bra(0, 0), Observable.PA_SUM) == 0.0
        assert readout_signal(ket_bra(0, 0), Observable.PB_SECOND) == 0.0

    def test_first_excited_state(self):
        assert readout_signal(ket_bra(1, 1), Observable.PA_SUM) == 1.0
        assert readout_signal(ket_bra(1, 1), Observable.PB_SECOND) == 0.0

    def test_second_excited_state(self):
        assert readout_signal(ket_bra(2, 2), Observable.PA_SUM) == 1.0
        assert readout_signal(ket_bra(2, 2), Observable.PB_SECOND) == 1.0

    def test_roundoff_negatives_clamp_to_zero(self):
        rho = np.diag([1.0 + 2e-11, -4e-11, 2e-11])
        assert readout_signal(rho, Observable.PA_SUM) == 0.0

    def test_rejects_invalid_state(self):
        with pytest.raises(NonPhysicalResult):
            readout_signal(np.diag([2.0, -0.5, -0.5]), Observable.PA_SUM)

    def test_rejects_value_above_one(self):
        readout_signal(np.diag([-1e-10, 1.0 + 1e-10, 0.0]), Observable.POPULATION1)
        with pytest.raises(NonPhysicalResult, match="readout"):
            readout_signal(np.diag([-3e-10, 1.0 + 3e-10, 0.0]), Observable.POPULATION1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="readout mode"):
            readout_signal(ket_bra(0, 0), "pa_sum")

    def test_fidelity_is_not_a_linear_readout(self):
        with pytest.raises(ValueError, match="readout mode"):
            readout_signal(ket_bra(0, 0), Observable.FIDELITY)

    def test_stack_reads_like_its_states(self, paper_rates):
        rho = steady_states(np.linspace(-2.0, 2.0, 7), 0.3, 0.186, 1.41, paper_rates)
        for observable in (Observable.PA_SUM, Observable.PB_SECOND, Observable.POPULATION1):
            values = readout_signal(rho, observable)
            assert values.shape == (7,)
            assert values.tolist() == [readout_signal(r, observable) for r in rho]


class TestEvolveArgumentValidation:
    def test_negative_duration_rejected(self, paper_rates):
        model = ThreeLevelModel(DriveParams(), paper_rates)
        with pytest.raises(ValueError, match="t_final"):
            evolve(model, ket_bra(0, 0), -1.0, 0.1)

    def test_record_every_validated(self, paper_rates):
        model = ThreeLevelModel(DriveParams(), paper_rates)
        with pytest.raises(ValueError, match="record_every"):
            evolve(model, ket_bra(0, 0), 1.0, 0.1, record_every=0)
