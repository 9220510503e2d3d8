"""Tests for the spectroscopy experiments: grid handling, observables,
consistency between independent evaluation paths, and the published
qualitative features."""

import tracemalloc

import numpy as np
import pytest

from atsplit import experiments, solver
from atsplit.analysis import fit_peaks
from atsplit.experiments import (
    Grid1D,
    Observable,
    SweepResult,
    at_map,
    at_slice,
    coupler_spectroscopy,
    default_map_grid,
    default_slice_grid,
    eit_regime_scan,
    fidelity_vs_coupler,
    probe_spectroscopy,
    rabi_trace,
    readout_signal,
)
from atsplit.errors import SingularLiouvillian
from atsplit.model import DecoherenceRates, DriveParams, ThreeLevelModel, ket_bra
from atsplit.solver import evolve, final_states, steady_state

from conftest import FIG3_COUPLERS, OMEGA_P


def model_with(rates, **drive):
    return ThreeLevelModel(DriveParams(**drive), rates)


class TestGrid1D:
    def test_points_include_endpoints(self):
        grid = Grid1D(-1.0, 1.0, 5)
        np.testing.assert_allclose(grid.points, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_count_validated(self):
        with pytest.raises(ValueError, match="count"):
            Grid1D(0.0, 1.0, 1)

    def test_order_validated(self):
        with pytest.raises(ValueError, match="start"):
            Grid1D(1.0, 0.0, 10)


class TestSweepResult:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SweepResult(
                axis1=np.arange(4.0),
                values=np.zeros(3),
                observable=Observable.PA_SUM,
                axis1_name="x",
            )


class TestProbeSpectroscopy:
    def test_peak_centered_at_zero_detuning(self, paper_rates):
        sweep = probe_spectroscopy(
            model_with(paper_rates, omega_p=OMEGA_P), Grid1D(-1.0, 1.0, 201)
        )
        assert sweep.observable is Observable.PA_SUM
        assert sweep.axis1[np.argmax(sweep.values)] == pytest.approx(0.0, abs=1e-12)

    def test_zero_probe_gives_zero_signal(self, paper_rates):
        sweep = probe_spectroscopy(model_with(paper_rates), Grid1D(-1.0, 1.0, 51))
        np.testing.assert_allclose(sweep.values, 0.0, atol=1e-13)

    def test_power_broadening(self, paper_rates):
        """The fitted linewidth grows with probe amplitude."""
        widths = []
        for omega_p in (OMEGA_P, 2 * OMEGA_P):
            sweep = probe_spectroscopy(
                model_with(paper_rates, omega_p=omega_p), Grid1D(-2.0, 2.0, 401)
            )
            fit = fit_peaks(np.column_stack([sweep.axis1, sweep.values]), 1)
            assert fit.converged
            (peak,) = fit.peaks
            widths.append(peak.fwhm)
        assert widths[1] > 1.5 * widths[0]

    def test_requires_coupler_off(self, paper_rates):
        with pytest.raises(ValueError, match="omega_c"):
            probe_spectroscopy(
                model_with(paper_rates, omega_p=0.1, omega_c=1.0), Grid1D(-1, 1, 51)
            )


class TestCouplerSpectroscopy:
    def test_pi_pulse_transfers_population(self, paper_rates):
        """On resonance, a half-Rabi-period pulse moves |1> to |2> up to
        decay losses during the pulse."""
        omega_c = 2.0
        base = model_with(paper_rates, omega_c=omega_c)
        t_pi = 1.0 / (2.0 * omega_c)
        sweep = coupler_spectroscopy(base, Grid1D(-6.0, 6.0, 61), t_pi)
        peak = sweep.values[np.argmin(np.abs(sweep.axis1))]
        loss_bound = (paper_rates.gamma_21 + 2.0 * paper_rates.phi_2) * t_pi
        assert 1.0 - 3.0 * loss_bound <= peak < 1.0

    def test_peak_centered_at_zero(self, paper_rates):
        base = model_with(paper_rates, omega_c=2.0)
        sweep = coupler_spectroscopy(base, Grid1D(-6.0, 6.0, 121), 0.25)
        assert sweep.observable is Observable.PB_SECOND
        assert sweep.axis1[np.argmax(sweep.values)] == pytest.approx(0.0, abs=1e-12)

    def test_zero_duration_gives_zero_signal(self, paper_rates):
        base = model_with(paper_rates, omega_c=2.0)
        sweep = coupler_spectroscopy(base, Grid1D(-2.0, 2.0, 51), 0.0)
        np.testing.assert_allclose(sweep.values, 0.0, atol=1e-14)

    def test_one_stacked_solver_call(self, paper_rates, monkeypatch):
        """The scan propagates every detuning in one call, never per point."""
        calls = {"final_states": 0, "evolve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
        coupler_spectroscopy(model_with(paper_rates, omega_c=2.0), Grid1D(-3.0, 3.0, 41), 0.25)
        assert calls == {"final_states": 1, "evolve": 0}

    @pytest.mark.parametrize(
        "duration, match",
        [pytest.param(-0.1, r"^t_final=-0\.1 at point 0 must be >= 0$", id="-0.1"),
         pytest.param(float("nan"), r"^values \[.*, nan\] at point 0 must be finite$", id="nan")],
    )
    def test_invalid_duration_rejected(self, paper_rates, duration, match):
        with pytest.raises(ValueError, match=match):
            coupler_spectroscopy(model_with(paper_rates, omega_c=2.0), Grid1D(-1, 1, 5), duration)

    def test_requires_probe_off(self, paper_rates):
        with pytest.raises(ValueError, match="omega_p"):
            coupler_spectroscopy(
                model_with(paper_rates, omega_p=0.1, omega_c=2.0),
                Grid1D(-1, 1, 51),
                0.1,
            )


class TestRabiTrace:
    def test_first_maximum_at_half_period(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        half_period = 1.0 / (2.0 * OMEGA_P)
        sweep = rabi_trace(base, Grid1D(0.0, 3.0 * half_period, 301))
        assert sweep.observable is Observable.POPULATION1
        first_max = sweep.axis1[np.argmax(sweep.values)]
        assert first_max == pytest.approx(half_period, rel=0.02)

    def test_envelope_decays_toward_driven_steady_state(self, paper_rates):
        """The long-time limit is the driven steady state, which sits
        measurably below the lossless saturation value 1/2."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        target = steady_state(base)[1, 1].real
        sweep = rabi_trace(base, Grid1D(400.0, 420.0, 21))
        assert target < 0.5
        worst = float(np.abs(sweep.values - target).max())
        assert worst < 0.5 - target  # closer to the true limit than to 1/2

    def test_long_fine_grid_lands_on_every_point(self, paper_rates):
        """On this 20000-spacing grid each value must match an evolution to
        its own grid point, far inside the 5.6e-4 a one-step shift would
        move it."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweep = rabi_trace(base, Grid1D(0.0, 39.11, 20001))
        dt = 1.0 / (200.0 * solver.max_cyclic_frequency(base))
        for k in (1, 2, 9999, 19999, 20000):
            t = float(sweep.axis1[k])
            state = evolve(base, ket_bra(0, 0), t, dt, record_every=10**9).final_state()
            assert sweep.values[k] == pytest.approx(state[1, 1].real, abs=1e-6)

    def test_one_stacked_call_matches_single_points_bitwise(self, paper_rates, monkeypatch):
        """The trace is one final_states call, and each value is the final
        state of its own duration, bit for bit."""
        calls = {"final_states": 0, "evolve": 0}
        for name in calls:

            def counting(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counting)
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweep = rabi_trace(base, Grid1D(0.0, 20.0, 41))
        assert calls == {"final_states": 1, "evolve": 0}
        for t, value in zip(sweep.axis1.tolist(), sweep.values.tolist()):
            state = final_states(*base.drive.as_tuple(), base.rates, ket_bra(0, 0), t)[0]
            assert value == readout_signal(state, Observable.POPULATION1)

    def test_late_start_matches_shifted_grid(self, paper_rates):
        """A grid that starts late reads the same trace as one from 0."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        full = rabi_trace(base, Grid1D(0.0, 20.0, 401))
        late = rabi_trace(base, Grid1D(5.0, 20.0, 301))
        np.testing.assert_allclose(late.values, full.values[100:], atol=1e-7)

    def test_zero_probe_gives_flat_zero(self, paper_rates):
        sweep = rabi_trace(model_with(paper_rates), Grid1D(0.0, 10.0, 21))
        np.testing.assert_allclose(sweep.values, 0.0, atol=1e-14)

    def test_preconditions(self, paper_rates):
        with pytest.raises(ValueError, match="omega_c"):
            rabi_trace(model_with(paper_rates, omega_p=0.1, omega_c=1.0), Grid1D(0, 1, 11))
        with pytest.raises(ValueError, match="delta_p"):
            rabi_trace(model_with(paper_rates, omega_p=0.1, delta_p=1.0), Grid1D(0, 1, 11))


@pytest.fixture(scope="module")
def small_map(paper_rates):
    base = model_with(paper_rates, omega_p=OMEGA_P, omega_c=0.707)
    grid = Grid1D(-2.0, 2.0, 41)
    return at_map(base, grid, grid, jobs=1)


class TestAtMap:
    def test_symmetric_under_joint_sign_flip(self, small_map):
        np.testing.assert_allclose(
            small_map.values, small_map.values[::-1, ::-1], atol=1e-10
        )

    def test_zero_detuning_row_matches_slice(self, paper_rates, small_map):
        base = model_with(paper_rates, omega_p=OMEGA_P, omega_c=0.707)
        slice_result = at_slice(base, Grid1D(-2.0, 2.0, 41), [0.707])[0]
        j_zero = int(np.argmin(np.abs(small_map.axis2)))
        np.testing.assert_allclose(
            small_map.values[:, j_zero], slice_result.values, atol=1e-12
        )

    def test_values_independent_of_evaluation_path(self, paper_rates, small_map):
        """Single-point solves reproduce the map bit for bit, in any order."""
        rng = np.random.default_rng(17)
        for _ in range(8):
            i = int(rng.integers(0, 41))
            j = int(rng.integers(0, 41))
            model = model_with(
                paper_rates,
                delta_p=float(small_map.axis1[i]),
                delta_c=float(small_map.axis2[j]),
                omega_p=OMEGA_P,
                omega_c=0.707,
            )
            rho = steady_state(model)
            value = max(0.0, rho[1, 1].real + rho[2, 2].real)
            assert value == small_map.values[i, j]

    def test_parallel_jobs_give_identical_values(self, paper_rates, small_map):
        base = model_with(paper_rates, omega_p=OMEGA_P, omega_c=0.707)
        grid = Grid1D(-2.0, 2.0, 41)
        parallel = at_map(base, grid, grid, jobs=2)
        assert np.array_equal(parallel.values, small_map.values)

    @pytest.mark.parametrize("cores, columns, workers", [(64, 3, 3), (2, 7, 2), (1, 7, 1)])
    def test_worker_count_is_capped(self, paper_rates, monkeypatch, cores, columns, workers):
        """By default, and with jobs=10_000, the map starts a pool of one
        worker thread per usable CPU, but no more than there are columns,
        and a pool of one for one CPU.  The pool is replaced by a stand-in
        that records its size and maps serially, so the test starts no
        thread."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cores)
        base = model_with(paper_rates, omega_p=OMEGA_P, omega_c=0.707)
        dp, dc = Grid1D(-2.0, 2.0, 5), Grid1D(-2.0, 2.0, columns)
        for jobs in (None, 10_000):
            sizes.clear()
            capped = at_map(base, dp, dc, jobs=jobs)
            assert sizes == [workers]
            assert np.array_equal(capped.values, at_map(base, dp, dc, jobs=1).values)

    def test_failing_map_raises_the_same_error_for_any_worker_count(self, monkeypatch):
        """With every rate zero the steady state is not unique: a pool
        thread's SingularLiouvillian reaches the caller as the serial map's."""
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        base = model_with(DecoherenceRates(0.0, 0.0), omega_p=OMEGA_P, omega_c=0.707)
        grid = Grid1D(-2.0, 2.0, 9)
        messages = []
        for jobs in (1, 2):
            with pytest.raises(SingularLiouvillian) as raised:
                at_map(base, grid, grid, jobs=jobs)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            "steady state not unique at delta_p=-2.0, delta_c=-2.0, omega_p=0.186, omega_c=0.707:"
        )

    def test_failing_point_in_a_later_span_is_named_by_its_drives(self, paper_rates, monkeypatch):
        """Far-detuned coupler columns are too ill conditioned to solve.  The
        first to fail, column 10 of 12, is point 1 of the last of four spans
        for one worker but point 0 of a one-column span for two: the error
        names it by its drive values, the same for both."""
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        base = model_with(paper_rates, omega_p=OMEGA_P, omega_c=2.82)
        dp, dc = Grid1D(-2.0, 2.0, 3), Grid1D(-1.0, 1.0e8, 12)
        messages = []
        for jobs in (1, 2):
            with pytest.raises(SingularLiouvillian) as raised:
                at_map(base, dp, dc, jobs=jobs)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        point = f"delta_p=-2.0, delta_c={float(dc.points[10])!r}, omega_p=0.186, omega_c=2.82:"
        assert messages[0].startswith(f"steady state not unique at {point} 1-norm condition")

    @pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
    def test_usable_cpus_without_affinity_falls_back_to_cpu_count(
        self, monkeypatch, count, usable
    ):
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: count)
        assert experiments._usable_cpus() == usable

    def test_requires_both_drives(self, paper_rates):
        with pytest.raises(ValueError, match="amplitudes"):
            at_map(model_with(paper_rates, omega_p=0.1), Grid1D(-1, 1, 11), Grid1D(-1, 1, 11))

    def test_serial_memory_is_bounded(self, paper_rates):
        """The steady-state kernel works in fixed chunks, so a 301x301 map
        needs its 13 MB of returned density matrices plus a few MB of work
        arrays; one unchunked batch would peak near 530 MB."""
        grid = default_map_grid(2.82)
        grid = Grid1D(grid.start, grid.stop, 301)
        tracemalloc.start()
        try:
            at_map(model_with(paper_rates, omega_p=OMEGA_P, omega_c=2.82), grid, grid, jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestAtSlice:
    def test_symmetric_in_probe_detuning(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweep = at_slice(base, Grid1D(-3.0, 3.0, 121), [1.41])[0]
        np.testing.assert_allclose(sweep.values, sweep.values[::-1], atol=1e-10)

    def test_default_grid_brackets_peaks(self):
        grid = default_slice_grid(11.2)
        assert grid.count == 401
        assert grid.start == -(1.5 * 11.2 + 1.0)
        assert grid.stop == +(1.5 * 11.2 + 1.0)

    def test_one_sweep_per_coupler(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweeps = at_slice(base, None, [0.707, 2.82])
        assert len(sweeps) == 2

    def test_merged_doublet_keeps_signal_at_center(self, paper_rates):
        """At omega_c near 2*omega_p the peaks overlap and the dark window
        has not yet opened fully."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweep = at_slice(base, None, [0.354])[0]
        center = sweep.values[np.argmin(np.abs(sweep.axis1))]
        assert center > 0.25 * sweep.values.max()

    def test_center_drops_as_coupler_grows(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        centers = []
        for omega_c in FIG3_COUPLERS:
            sweep = at_slice(base, None, [omega_c])[0]
            peak = sweep.values.max()
            centers.append(sweep.values[np.argmin(np.abs(sweep.axis1))] / peak)
        assert all(b < a for a, b in zip(centers, centers[1:]))

    def test_resolved_doublet_centers_near_half_coupler(self, paper_rates):
        """At omega_c = 2.82 the fitted doublet centers sit at +-1.41 MHz
        within 2%, and the midpoint shift vanishes to 1e-3 MHz (the
        three-level model has no doublet pushing)."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweep = at_slice(base, None, [2.82])[0]
        fit = fit_peaks(
            np.column_stack([sweep.axis1, sweep.values]),
            2,
            init=[-1.41, 0.33, 0.5, 1.41, 0.33, 0.5, 0.0],
        )
        assert fit.converged
        left, right = fit.peaks
        assert left.center == pytest.approx(-1.41, rel=0.02)
        assert right.center == pytest.approx(1.41, rel=0.02)
        midpoint = 0.5 * (left.center + right.center)
        assert abs(midpoint) <= 1e-3

    def test_requires_zero_coupler_detuning(self, paper_rates):
        with pytest.raises(ValueError, match="delta_c"):
            at_slice(
                model_with(paper_rates, omega_p=OMEGA_P, delta_c=0.5), None, [1.0]
            )

    def test_requires_positive_couplers(self, paper_rates):
        with pytest.raises(ValueError, match="> 0"):
            at_slice(model_with(paper_rates, omega_p=OMEGA_P), None, [1.0, 0.0])


class TestFidelityVsCoupler:
    def test_published_band_at_max_coupler(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweep = fidelity_vs_coupler(base, [11.2])
        assert 0.995 <= sweep.values[0] <= 0.9995

    def test_weak_coupler_is_far_from_unity(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweep = fidelity_vs_coupler(base, [0.01])
        assert sweep.values[0] < 0.75

    def test_monotone_in_coupler(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        sweep = fidelity_vs_coupler(base, list(FIG3_COUPLERS))
        assert np.all(np.diff(sweep.values) >= 0.0)

    def test_requires_zero_detunings(self, paper_rates):
        with pytest.raises(ValueError, match="delta_p = delta_c = 0"):
            fidelity_vs_coupler(
                model_with(paper_rates, omega_p=OMEGA_P, delta_p=0.1), [1.0]
            )

    def test_requires_nonzero_drive_somewhere(self, paper_rates):
        with pytest.raises(ValueError, match="omega_p"):
            fidelity_vs_coupler(model_with(paper_rates), [1.0, 0.0])
        fidelity_vs_coupler(model_with(paper_rates, omega_p=OMEGA_P), [1.0, 0.0])


class TestEitRegimeScan:
    def test_first_curve_matches_unscaled_fidelity(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        ratios = Grid1D(1.0, 21.0, 11)
        scan = eit_regime_scan(base, 0, ratios)
        direct = fidelity_vs_coupler(base, list(ratios.points * OMEGA_P))
        np.testing.assert_allclose(scan[0].values, direct.values, atol=1e-14)

    def test_returns_one_curve_per_scale(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        scan = eit_regime_scan(base, 3, Grid1D(0.5, 10.0, 6))
        assert len(scan) == 4

    def test_fidelity_increases_with_n_at_unit_ratio(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        scan = eit_regime_scan(base, 5, Grid1D(1.0, 2.0, 3))
        at_unit = [curve.values[0] for curve in scan]
        assert all(b > a for a, b in zip(at_unit, at_unit[1:]))

    def test_requires_probe_drive(self, paper_rates):
        with pytest.raises(ValueError, match="omega_p"):
            eit_regime_scan(model_with(paper_rates), 2, Grid1D(0.5, 2.0, 5))

    def test_scale_underflows_to_zero_instead_of_overflowing(self, paper_rates):
        """Past n = 1023, 2**n overflows a float; the scale 0.5**n instead
        reaches gamma_21 = 0, whose steady state still solves."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        scan = eit_regime_scan(base, 1100, Grid1D(1.0, 2.0, 2))
        assert len(scan) == 1101
        assert all(np.isfinite(curve.values).all() for curve in scan)
