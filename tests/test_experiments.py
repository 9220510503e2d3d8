"""Tests for the spectroscopy experiments: grid handling, observables,
consistency between independent evaluation paths, and the published
qualitative features."""

import concurrent.futures
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from atsplit import config, experiments, solver
from atsplit.analysis import fit_peaks
from atsplit.experiments import (
    Grid1D,
    Observable,
    SweepResult,
    at_map,
    at_slice,
    auto_grid,
    coupler_spectroscopy,
    eit_regime_scan,
    fidelity_vs_coupler,
    probe_spectroscopy,
    rabi_trace,
    readout_signal,
)
from atsplit.errors import SingularLiouvillian
from atsplit.model import DecoherenceRates, DriveParams, ThreeLevelModel
from atsplit.solver import evolve, final_states, ket_bra, reject, steady_state, steady_states

from conftest import FIG3_COUPLERS, OMEGA_P, ROOT, load_module
from test_solver import gate_models


def model_with(rates, **drive):
    return ThreeLevelModel(DriveParams(**drive), rates)


class TestGrid1D:
    def test_points_include_endpoints(self):
        grid = Grid1D(-1.0, 1.0, 5)
        np.testing.assert_allclose(grid.points, [-1.0, -0.5, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize("count", [2, 3, 40, 41, 200, 201, 301, 401])
    @pytest.mark.parametrize("stop", [1.0, 3.0, 2.0 * 2.82 + 2.0, 1.5 * 0.354 + 1.0,
                                      1.5 * 11.2 + 1.0])
    def test_symmetric_grid_is_exactly_antisymmetric(self, stop, count):
        """A grid from -stop to stop is its negated reversal bit for bit, so
        the point reflection maps it onto itself; each value stays within a
        few ulp of np.linspace."""
        points = Grid1D(-stop, stop, count).points
        assert np.array_equal(points, -points[::-1])
        assert points[0] == -stop and points[-1] == stop
        if count % 2:
            middle = points[count // 2]
            assert middle == 0.0 and not np.signbit(middle)
        assert np.all(np.diff(points) > 0.0)
        assert np.max(np.abs(points - np.linspace(-stop, stop, count))) <= 4 * np.spacing(stop)

    @pytest.mark.parametrize("start, stop, count", [(-7.64, 7.0, 301), (0.0, 20.0, 401),
                                                    (0.25, 60.25, 81), (-7.64, 7.64 + 1e-15, 301)])
    def test_other_grids_are_linspace(self, start, stop, count):
        grid = Grid1D(start, stop, count)
        assert grid.points.tobytes() == np.linspace(start, stop, count).tobytes()

    def test_count_validated(self):
        with pytest.raises(ValueError, match="count"):
            Grid1D(0.0, 1.0, 1)

    def test_order_validated(self):
        with pytest.raises(ValueError, match="start"):
            Grid1D(1.0, 0.0, 10)

    @pytest.mark.parametrize("count", [3.0, np.float64(3.0)], ids=["float", "numpy-float"])
    def test_count_must_be_an_integer(self, count):
        """A float count fails when the grid is built, not when its points are."""
        with pytest.raises(TypeError):
            Grid1D(0.0, 1.0, count)

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(3)],
                             ids=["int64", "int32", "uint8"])
    def test_numpy_integer_count_is_an_integer(self, count):
        assert Grid1D(0.0, 1.0, count).points.tolist() == [0.0, 0.5, 1.0]


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

    def test_requires_zero_coupler_detuning(self, paper_rates):
        """The probe line is the slice at zero coupler amplitude, taken at
        delta_c = 0 only, as ``config`` requires for probe_spec; with the
        coupler off, |2> is decoupled and the line does not depend on delta_c."""
        with pytest.raises(ValueError, match="delta_c = 0"):
            probe_spectroscopy(
                model_with(paper_rates, omega_p=OMEGA_P, delta_c=0.5), Grid1D(-1, 1, 51)
            )

    @pytest.mark.parametrize("grid", [
        pytest.param(None, id="paper"),
        pytest.param(Grid1D(-1.0, 2.0, 201), id="asymmetric"),
        pytest.param(Grid1D(-2.5, 2.5, 400), id="even"),
    ])
    def test_is_the_zero_coupler_slice(self, grid):
        """The probe line is the doublet slice at omega_c = 0 bit for bit, also
        as one row among other couplers: on the probe grid of ``paper.cfg``,
        an asymmetric grid and an even count.  Each value equals its own
        single-point solve."""
        paper_set = load_module(ROOT / "tools" / "paper_set.py")
        probe = config.load(config.bundled_config_path("paper.cfg"), paper_set.RUNS["probe_spec"])
        base = model_with(probe.rates, omega_p=probe.omega_p)
        grid = grid or probe.delta_p
        line = probe_spectroscopy(base, grid)
        for row in (at_slice(base, grid, [0.0])[0], at_slice(base, grid, [2.82, 0.0])[1]):
            assert row.values.tobytes() == line.values.tobytes()
            assert row.axis1.tobytes() == grid.points.tobytes() == line.axis1.tobytes()
            assert (row.observable, row.axis1_name) == (line.observable, line.axis1_name)
        assert direct_values(line, base, 0.0).tobytes() == line.values.tobytes()


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
        [pytest.param(-0.1, r"^t_final must be >= 0 at delta_p=0\.0, delta_c=-1\.0, omega_p=0\.0, "
                      r"omega_c=2\.0, t_final=-0\.1$", id="-0.1"),
         pytest.param(float("nan"), r"^values must be finite at delta_p=0\.0, delta_c=-1\.0, "
                      r"omega_p=0\.0, omega_c=2\.0, t_final=nan$", id="nan")],
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


def direct_values(sweep: SweepResult, base: ThreeLevelModel, omega_c: float) -> np.ndarray:
    """The PA_SUM value of every point of a probe line, slice or map, each
    from a ``steady_states`` solve of that point's own drives."""
    if sweep.axis2 is None:
        dp, dc = np.broadcast_arrays(sweep.axis1, base.drive.delta_c)
    else:
        dp, dc = np.broadcast_arrays(sweep.axis1[:, None], sweep.axis2)
    rho = steady_states(dp.ravel(), dc.ravel(), base.drive.omega_p, omega_c, base.rates)
    return readout_signal(rho, Observable.PA_SUM).reshape(sweep.values.shape)


@pytest.fixture
def solved_points(monkeypatch):
    """The number of points each ``steady_states`` call of ``experiments`` solves."""
    counts = []

    def counting(*args):
        rho = solver.steady_states(*args)
        counts.append(len(rho))
        return rho

    monkeypatch.setattr(experiments, "steady_states", counting)
    return counts


class TestMirroredSweeps:
    """A grid that the point reflection (delta_p, delta_c) -> (-delta_p,
    -delta_c) maps onto itself is solved in its first half and filled by
    reversal; every filled value must equal the solve of its own point."""

    @pytest.fixture(scope="class")
    def paper_configs(self):
        paper_set = load_module(ROOT / "tools" / "paper_set.py")
        path = config.bundled_config_path("paper.cfg")
        return {name: config.load(path, paper_set.RUNS[name])
                for name in ("at_map", "at_slice", "probe_spec")}

    def test_paper_grids_equal_direct_solves_bitwise(self, paper_configs, solved_points):
        maps = paper_configs["at_map"]
        base = model_with(maps.rates, omega_p=maps.omega_p, omega_c=maps.omega_c_values[0])
        sweep = at_map(base, maps.delta_p, maps.delta_c)
        assert sum(solved_points) == (maps.delta_p.count + 1) // 2 * maps.delta_c.count
        assert direct_values(sweep, base, base.drive.omega_c).tobytes() == sweep.values.tobytes()

        slices = paper_configs["at_slice"]
        base = model_with(slices.rates, omega_p=slices.omega_p)
        for omega_c, sweep in zip(slices.omega_c_values,
                                  at_slice(base, slices.delta_p, slices.omega_c_values)):
            assert direct_values(sweep, base, omega_c).tobytes() == sweep.values.tobytes()

        probe = paper_configs["probe_spec"]
        base = model_with(probe.rates, omega_p=probe.omega_p)
        sweep = probe_spectroscopy(base, probe.delta_p)
        assert direct_values(sweep, base, 0.0).tobytes() == sweep.values.tobytes()

    def test_random_models_equal_direct_solves_bitwise(self):
        """The 200 random models of the gate tests, each on symmetric grids
        out to its own detunings."""
        for model in gate_models()[:200]:
            drive = model.drive
            dp = Grid1D(-abs(drive.delta_p), abs(drive.delta_p), 7)
            dc = Grid1D(-abs(drive.delta_c), abs(drive.delta_c), 6)
            base = model_with(model.rates, omega_p=drive.omega_p, omega_c=drive.omega_c)
            sweep = at_map(base, dp, dc, jobs=1)
            assert direct_values(sweep, base, drive.omega_c).tobytes() == sweep.values.tobytes()
            sweep = at_slice(base, dp, [drive.omega_c])[0]
            assert direct_values(sweep, base, drive.omega_c).tobytes() == sweep.values.tobytes()
            sweep = probe_spectroscopy(base.with_drive(omega_c=0.0), dp)
            assert direct_values(sweep, base, 0.0).tobytes() == sweep.values.tobytes()

    @pytest.mark.parametrize("dp, dc, solved", [
        pytest.param(Grid1D(-7.64, 7.64, 301), Grid1D(-7.64, 7.64, 301), 151 * 301, id="symmetric"),
        pytest.param(Grid1D(-7.64, 7.0, 301), Grid1D(-7.64, 7.64, 301), 301 * 301, id="delta_p"),
        pytest.param(Grid1D(-7.64, 7.64, 301), Grid1D(-7.64, 7.0, 301), 301 * 301, id="delta_c"),
        pytest.param(Grid1D(-7.64, 7.64, 300), Grid1D(-2.0, 2.0, 7), 150 * 7, id="even"),
    ])
    def test_map_solves_half_of_a_symmetric_grid_only(self, paper_rates, solved_points,
                                                      dp, dc, solved):
        at_map(model_with(paper_rates, omega_p=OMEGA_P, omega_c=2.82), dp, dc)
        assert sum(solved_points) == solved

    def test_probe_line_solves_half(self, paper_rates, solved_points):
        """The probe line runs at delta_c = 0 only, so a symmetric probe grid
        is always mirrored."""
        probe_spectroscopy(model_with(paper_rates, omega_p=OMEGA_P), Grid1D(-1.0, 1.0, 401))
        assert sum(solved_points) == 201

    @pytest.mark.parametrize("grid, solved", [
        pytest.param(None, 6 * 201, id="auto"),
        pytest.param(Grid1D(-3.0, 3.0, 121), 6 * 61, id="symmetric"),
        pytest.param(Grid1D(-3.0, 2.5, 121), 6 * 121, id="asymmetric"),
    ])
    def test_slices_solve_half_of_symmetric_grids_only(self, paper_rates, solved_points,
                                                       grid, solved):
        at_slice(model_with(paper_rates, omega_p=OMEGA_P), grid, FIG3_COUPLERS)
        assert sum(solved_points) == solved

    def test_steady_sweep_mirrors_a_symmetric_map_itself(self, paper_rates, solved_points):
        """Called directly, with no mirror axes named, ``_steady_sweep`` solves
        only the first (7 + 1) // 2 rows of a symmetric 7x5 map, and each
        value equals its own solve."""
        dp, dc = Grid1D(-2.0, 2.0, 7).points[:, None], Grid1D(-1.0, 1.0, 5).points
        values = experiments._steady_sweep(Observable.PA_SUM, paper_rates, dp, dc,
                                           OMEGA_P, 0.707)
        assert sum(solved_points) == (7 + 1) // 2 * 5
        dp, dc = np.broadcast_arrays(dp, dc)
        rho = solver.steady_states(dp.ravel(), dc.ravel(), OMEGA_P, 0.707, paper_rates)
        assert values.tobytes() == readout_signal(rho, Observable.PA_SUM).tobytes()

    @pytest.mark.parametrize("varying", ["omega_c", "rates"])
    def test_sweep_varying_along_its_detunings_is_solved_in_full(self, paper_rates,
                                                                  solved_points, varying):
        """A symmetric probe axis is no mirror axis where the coupler
        amplitude or the rate rows vary along it: all nine points are solved."""
        dp = Grid1D(-2.0, 2.0, 9).points
        omega_c, rates = 0.707, paper_rates
        if varying == "omega_c":
            omega_c = np.linspace(0.5, 1.3, 9)
        else:
            rates = np.array([replace(paper_rates, gamma_21=g).as_tuple()
                              for g in np.linspace(0.01, 0.09, 9)])
        values = experiments._steady_sweep(Observable.PA_SUM, rates, dp, 0.0, OMEGA_P, omega_c)
        assert sum(solved_points) == 9
        rho = solver.steady_states(dp, 0.0, OMEGA_P, omega_c, rates)
        assert values.tobytes() == readout_signal(rho, Observable.PA_SUM).tobytes()

    def test_failing_half_names_the_point_of_the_full_grid(self, paper_rates, monkeypatch):
        """Let the mirror pair (2, -2) and (-2, 2) of a 5x5 map fail.  In
        grid order (-2, 2), point 4, comes before (2, -2), point 20, so a
        full solve names it; the solved half holds it and names it too,
        and no point with delta_p > 0 is ever solved.  ``_steady_sweep``
        called on the same grid mirrors it too, and names the first point
        whose own single-point solve fails in C order."""
        solved = []

        def failing(delta_p, delta_c, *rest):
            dp, dc = np.broadcast_arrays(delta_p, delta_c)
            solved.extend(dp)
            reject(((np.abs(dp) == 2.0) & (dc == -dp), SingularLiouvillian,
                    lambda k: f"fails at delta_p={float(dp[k])!r}, delta_c={float(dc[k])!r}"))
            return solver.steady_states(delta_p, delta_c, *rest)

        def error(delta_p, delta_c):
            try:
                failing(np.array([delta_p]), np.array([delta_c]), OMEGA_P, 0.707, paper_rates)
            except SingularLiouvillian as exc:
                return str(exc)
            return None

        monkeypatch.setattr(experiments, "steady_states", failing)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
        base = model_with(paper_rates, omega_p=OMEGA_P, omega_c=0.707)
        grid = Grid1D(-2.0, 2.0, 5)
        with pytest.raises(SingularLiouvillian, match=r"^fails at delta_p=-2\.0, delta_c=2\.0$"):
            at_map(base, grid, grid)
        assert solved and max(solved) <= 0.0

        points = np.broadcast_arrays(grid.points[:, None], grid.points)
        first = next(filter(None, (error(*point) for point in zip(*(p.flat for p in points)))))
        solved.clear()
        with pytest.raises(SingularLiouvillian) as raised:
            experiments._steady_sweep(Observable.PA_SUM, paper_rates, grid.points[:, None],
                                      grid.points, OMEGA_P, 0.707)
        assert str(raised.value) == first
        assert solved and max(solved) <= 0.0


class TestAtMap:
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

    @pytest.mark.parametrize("cores, rows, columns, workers",
                             [(64, 2, 3, 3), (64, 5, 3, 8), (2, 5, 7, 2), (1, 5, 7, 1),
                              (64, 5, 301, 8)])
    def test_worker_count_is_capped(self, paper_rates, monkeypatch, cores, rows, columns,
                                    workers):
        """By default, and with jobs=10_000, the map starts a pool of one
        worker thread per usable CPU, but no more than there are spans (one
        per solved point, at most eight), and a pool of one for one CPU.  A
        symmetric map solves its first ceil(rows/2) rows: 2x3 solves 3
        points, 5x3 solves 9.  The pool is replaced by a stand-in that
        records its size and maps serially, so the test starts no thread."""
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

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cores)
        base = model_with(paper_rates, omega_p=OMEGA_P, omega_c=0.707)
        dp, dc = Grid1D(-2.0, 2.0, rows), Grid1D(-2.0, 2.0, columns)
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
        first to fail, column 10 of 12, lies in the seventh of eight spans:
        the error names it by its drive values, the same for one worker and
        for two."""
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

    def test_failing_point_does_not_depend_on_the_worker_count(self, paper_rates, monkeypatch):
        """Two points of this 3x5 map fail: (-2.0, 2.5e8) comes first in
        row order, (5e8, -1.0) lies in the first column.  The spans are
        contiguous runs of the grid in row order, so every worker count
        names the first."""
        base = model_with(paper_rates, omega_p=OMEGA_P, omega_c=2.82)
        dp, dc = Grid1D(-2.0, 1e9, 3), Grid1D(-1.0, 1e9, 5)
        messages = set()
        for cpus in (1, 2, 8):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            for jobs in (None, 1, 2):
                with pytest.raises(SingularLiouvillian) as raised:
                    at_map(base, dp, dc, jobs=jobs)
                messages.add(str(raised.value))
        assert len(messages) == 1, messages
        point = "delta_p=-2.0, delta_c=249999999.25, omega_p=0.186, omega_c=2.82:"
        assert messages.pop().startswith(f"steady state not unique at {point} 1-norm condition")

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
        """The steady-state kernel works in fixed chunks and each span (a run
        of points in grid order) returns only its values, so a 301x301 map
        needs its 0.7 MB of values plus a few MB of work arrays (about 6 MB in
        all).  Holding the map's density matrices would take 13 MB; one
        unchunked batch would peak near 530 MB."""
        grid = auto_grid("at_map", 2.82)
        grid = Grid1D(grid.start, grid.stop, 301)
        tracemalloc.start()
        try:
            at_map(model_with(paper_rates, omega_p=OMEGA_P, omega_c=2.82), grid, grid, jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


#: README's table of auto grids: experiment -> (extent at coupler amplitude w, count).
README_AUTO_GRIDS = {
    "probe_spec": (lambda w: 1.0, 401),
    "coupler_spec": (lambda w: 2 * w + 1, 201),
    "at_map": (lambda w: 2 * w + 2, 201),
    "at_slice": (lambda w: 1.5 * w + 1, 401),
}


class TestAtSlice:
    @pytest.mark.parametrize("omega_c", [0.0, 2.82, 11.2])
    @pytest.mark.parametrize("experiment", README_AUTO_GRIDS)
    def test_default_grid_brackets_peaks(self, experiment, omega_c):
        """Every auto grid has README's extent and count, and it is exactly
        symmetric, so ``_steady_sweep`` solves half of it."""
        extent, count = README_AUTO_GRIDS[experiment]
        grid = auto_grid(experiment, omega_c)
        assert (grid.stop, grid.count) == (extent(omega_c), count)
        assert grid.start == -grid.stop

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
        fit = fit_peaks(np.column_stack([sweep.axis1, sweep.values]), 2)
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

    def test_requires_nonnegative_couplers(self, paper_rates):
        """A zero amplitude is the bare probe line; a negative one is refused."""
        with pytest.raises(ValueError, match=r"must be >= 0, got -0\.5$"):
            at_slice(model_with(paper_rates, omega_p=OMEGA_P), None, [1.0, 0.0, -0.5])


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
    def test_every_curve_is_fidelity_vs_coupler_on_its_scaled_rates(self, paper_rates):
        """The curves are the rows of one sweep with one rate set per row;
        each equals its own ``fidelity_vs_coupler`` bit for bit."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        ratios = Grid1D(0.0, 21.0, 43)
        scan = eit_regime_scan(base, 9, ratios)
        assert len(scan) == 10
        for n, curve in enumerate(scan):
            scaled = replace(paper_rates, gamma_21=paper_rates.gamma_21 * 0.5**n)
            direct = fidelity_vs_coupler(replace(base, rates=scaled), ratios.points * OMEGA_P)
            assert np.array_equal(curve.axis1, ratios.points)
            assert curve.axis1_name == "omega_c_over_omega_p"
            assert curve.values.tobytes() == direct.values.tobytes()

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

    @pytest.mark.parametrize(
        "n_max, drive, ratios, match",
        [pytest.param(-1, {}, (0.5, 2.0), "n_max must be >= 0, got -1", id="negative-n_max"),
         pytest.param(2, {"delta_p": 0.1}, (0.5, 2.0), "delta_p = delta_c = 0", id="delta_p"),
         pytest.param(2, {"delta_c": -0.1}, (0.5, 2.0), "delta_p = delta_c = 0", id="delta_c"),
         pytest.param(2, {}, (-1.0, 2.0), "drive ratios must be >= 0", id="negative-ratio")],
    )
    def test_invalid_arguments_rejected(self, paper_rates, n_max, drive, ratios, match):
        base = model_with(paper_rates, omega_p=OMEGA_P, **drive)
        with pytest.raises(ValueError, match=match):
            eit_regime_scan(base, n_max, Grid1D(*ratios, 5))

    def test_scale_underflows_to_zero_instead_of_overflowing(self, paper_rates):
        """Past n = 1023, 2**n overflows a float; the scale 0.5**n instead
        reaches gamma_21 = 0, whose steady state still solves."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        scan = eit_regime_scan(base, 1100, Grid1D(1.0, 2.0, 2))
        assert len(scan) == 1101
        assert all(np.isfinite(curve.values).all() for curve in scan)

    def test_error_names_the_failing_curve_by_its_rates(self):
        """With gamma_10 = 0 a curve's steady state stops being unique as
        gamma_21 * 0.5^n shrinks.  The curves share their drives, so the
        error names the first failing curve by its rate row, at the first
        ratio where it fails: a curve may fail at ratio 2 before the next
        one fails at ratio 1."""
        base = model_with(DecoherenceRates(0.0, 0.0172), omega_p=OMEGA_P)
        ratios = Grid1D(1.0, 2.0, 2)
        with pytest.raises(SingularLiouvillian) as raised:
            eit_regime_scan(base, 1100, ratios)

        def fails(gamma_21, omega_c):
            try:
                fidelity_vs_coupler(replace(base, rates=DecoherenceRates(0.0, gamma_21)), [omega_c])
            except SingularLiouvillian:
                return True
            return False

        gamma_21, omega_c = next((g, r * OMEGA_P) for g in (0.0172 * 0.5**n for n in range(1101))
                                 for r in ratios.points.tolist() if fails(g, r * OMEGA_P))
        assert str(raised.value).startswith(
            "steady state not unique at delta_p=0.0, delta_c=0.0, omega_p=0.186, "
            f"omega_c={omega_c!r}, gamma_10=0.0, gamma_21={gamma_21!r}, gamma_20=0.0, "
            "phi_1=0.0, phi_2=0.0: 1-norm condition")


#: Each steady-state experiment on a grid that two workers split into
#: several spans, as the list of its sweeps.
STEADY_SWEEPS = {
    "probe_spectroscopy": lambda base: [probe_spectroscopy(base, Grid1D(-2.0, 2.0, 41))],
    "at_map": lambda base: [at_map(base.with_drive(omega_c=0.707), Grid1D(-2.0, 2.0, 21),
                                   Grid1D(-2.0, 2.0, 41))],
    "at_slice": lambda base: at_slice(base, None, FIG3_COUPLERS),
    "fidelity_vs_coupler": lambda base: [fidelity_vs_coupler(base, FIG3_COUPLERS)],
    "eit_regime_scan": lambda base: eit_regime_scan(base, 3, Grid1D(0.0, 4.0, 21)),
}


class TestWorkerCount:
    @pytest.mark.parametrize("experiment", sorted(STEADY_SWEEPS))
    def test_one_or_two_workers_give_identical_values(self, paper_rates, monkeypatch,
                                                      experiment):
        """Every steady-state experiment fans its points out over a pool of
        one thread per usable CPU; each point is solved on its own, so one
        worker and two give the same bits."""
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        base = model_with(paper_rates, omega_p=OMEGA_P)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            runs.append(STEADY_SWEEPS[experiment](base))
            assert pools and set(pools) == {cpus}
            pools.clear()
        serial, parallel = runs
        assert len(serial) == len(parallel) > 0
        for one, two in zip(serial, parallel):
            assert np.array_equal(one.axis1, two.axis1)
            assert np.array_equal(one.values, two.values)

    def test_bad_point_is_named_the_same_for_any_worker_count(self, paper_rates, monkeypatch):
        """An infinite coupler at index 13 of 20 is point 3 of its span for
        one worker and point 1 for two; the error names it by its drive
        values instead, so both read the same."""
        base = model_with(paper_rates, omega_p=OMEGA_P)
        couplers = np.linspace(0.5, 10.0, 20)
        couplers[13] = np.inf
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            with pytest.raises(ValueError) as raised:
                fidelity_vs_coupler(base, couplers)
            messages.append(str(raised.value))
        assert messages[0] == messages[1] == (
            "values must be finite at delta_p=0.0, delta_c=0.0, omega_p=0.186, omega_c=inf"
        )

    @pytest.mark.parametrize("sweep", ["asymmetric map", "symmetric map", "slices"])
    def test_error_names_the_first_failing_point_in_grid_order(self, monkeypatch, sweep):
        """With |1> dephasing as the only rate, the steady state is not
        unique on the two-photon resonance delta_p + delta_c = 0.  Every
        worker count names the grid's first point, in row-major order, whose
        own single-point solve fails; so does the solved half of a
        symmetric map or slice."""
        rates = DecoherenceRates(0.0, 0.0, phi_1=0.001)
        base = model_with(rates, omega_p=OMEGA_P, omega_c=0.707)
        grid = Grid1D(-2.0, 2.0, 5)
        if sweep == "slices":
            couplers = np.array([0.354, 0.707, 2.82])
            points = np.broadcast_arrays(grid.points, 0.0, couplers[:, None])
            run = partial(at_slice, base, grid, couplers)
        else:
            dp = grid if sweep == "symmetric map" else Grid1D(-2.0, 1.0, 4)
            points = np.broadcast_arrays(dp.points[:, None], grid.points, 0.707)
            run = partial(at_map, base, dp, grid)

        def error(delta_p, delta_c, omega_c):
            try:
                steady_states(delta_p, delta_c, OMEGA_P, omega_c, rates)
            except SingularLiouvillian as exc:
                return str(exc)
            return None

        first = next(filter(None, (error(*point) for point in zip(*(p.flat for p in points)))))
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            with pytest.raises(SingularLiouvillian) as raised:
                run()
            assert str(raised.value) == first

    def test_empty_coupler_lists_give_empty_results(self, paper_rates):
        base = model_with(paper_rates, omega_p=OMEGA_P)
        assert at_slice(base, None, []) == []
        assert at_slice(base, Grid1D(-2.0, 2.0, 41), []) == []
        assert fidelity_vs_coupler(base, []).values.shape == (0,)
