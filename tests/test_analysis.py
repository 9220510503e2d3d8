"""Tests for Lorentzian fitting and dark-state metrics."""

import dataclasses
import math

import numpy as np
import pytest

from atsplit import analysis
from atsplit.analysis import (
    LorentzianModel,
    PeakFit,
    dark_state_fidelity,
    fit_peaks,
    peak_separation,
)
from atsplit.errors import DegenerateData, NonPhysicalResult
from atsplit.experiments import Grid1D, at_slice
from atsplit.model import DriveParams, ThreeLevelModel, rates_from_coherence_times
from atsplit.solver import build_hamiltonian, ket_bra

from conftest import FIG3_COUPLERS, random_density_matrix


class TestLorentzianModel:
    def test_value_at_center(self):
        peak = LorentzianModel(center=0.3, fwhm=0.5, amplitude=0.8)
        assert peak(0.3) == pytest.approx(0.8, rel=1e-15)

    def test_half_amplitude_points(self):
        peak = LorentzianModel(center=-1.2, fwhm=0.4, amplitude=0.6)
        for x in (-1.2 - 0.2, -1.2 + 0.2):
            assert peak(x) == pytest.approx(0.3, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_center_far_off_the_grid_reads_zero(self):
        """(x - center)**2 overflows to inf there, without a warning; the
        value is 0, and ordinary inputs give the same bits."""
        x = np.linspace(-1.0, 1.0, 5)
        far = LorentzianModel(center=1.0e160, fwhm=0.3, amplitude=0.1)
        assert np.array_equal(far(x), np.zeros(5))
        peak = LorentzianModel(center=0.3, fwhm=0.5, amplitude=0.8)
        assert np.array_equal(peak(x), 0.8 * 0.0625 / ((x - 0.3) ** 2 + 0.0625))

    def test_invalid_parameters(self):
        for fwhm in (0.0, -1.0, math.nan, 1.0e200, 4.9e-324):  # (fwhm/2)**2 inf or 0
            with pytest.raises(ValueError, match="fwhm"):
                LorentzianModel(center=0, fwhm=fwhm, amplitude=1)
        with pytest.raises(ValueError, match="amplitude"):
            LorentzianModel(center=0, fwhm=1.0, amplitude=-1)


class TestPeakFitType:
    def test_ordering_enforced(self):
        left = LorentzianModel(0.5, 0.3, 1.0)
        right = LorentzianModel(-0.5, 0.3, 1.0)
        with pytest.raises(ValueError, match="center"):
            PeakFit(peaks=(left, right), offset=0.0, residual_rms=0.0, converged=True)

    def test_negative_residual_rejected(self):
        peak = LorentzianModel(0.0, 0.3, 1.0)
        with pytest.raises(ValueError, match="residual_rms"):
            PeakFit(peaks=(peak,), offset=0.0, residual_rms=-1e-3, converged=True)


class TestFitPeaks:
    def test_singlet_recovery(self):
        """Noiseless synthetic singlet recovers all parameters to 1e-6."""
        truth = LorentzianModel(center=0.3, fwhm=0.35, amplitude=0.8)
        x = np.linspace(-3, 3, 401)
        fit = fit_peaks(np.column_stack([x, 0.01 + truth(x)]), 1)
        assert isinstance(fit, PeakFit) and fit.converged
        (peak,) = fit.peaks
        assert peak.center == pytest.approx(0.3, rel=1e-6)
        assert peak.fwhm == pytest.approx(0.35, rel=1e-6)
        assert peak.amplitude == pytest.approx(0.8, rel=1e-6)
        assert fit.offset == pytest.approx(0.01, rel=1e-6)
        assert fit.residual_rms < 1e-10

    def test_doublet_recovery(self):
        left = LorentzianModel(-0.8, 0.3, 0.7)
        right = LorentzianModel(0.65, 0.45, 0.9)
        x = np.linspace(-4, 4, 501)
        y = 0.05 + left(x) + right(x)
        fit = fit_peaks(np.column_stack([x, y]), 2)
        assert isinstance(fit, PeakFit) and fit.converged
        left, right = fit.peaks
        assert left.center == pytest.approx(-0.8, abs=1e-6)
        assert right.center == pytest.approx(0.65, abs=1e-6)
        assert fit.offset == pytest.approx(0.05, rel=1e-6)

    @pytest.mark.parametrize("truth", [
        pytest.param((0.01, LorentzianModel(0.3, 0.35, 0.8)), id="singlet"),
        pytest.param((0.05, LorentzianModel(-0.8, 0.3, 0.7), LorentzianModel(0.65, 0.45, 0.9)),
                     id="doublet"),
    ])
    def test_offset_plus_peaks_reproduces_the_data(self, truth):
        """The fit's one offset plus its peaks is the fitted model: on
        noiseless data it reproduces every sample to 1e-12."""
        offset, *peaks = truth
        x = np.linspace(-4, 4, 501)
        y = offset + sum(p(x) for p in peaks)
        fit = fit_peaks(np.column_stack([x, y]), len(peaks))
        assert fit.converged
        assert np.max(np.abs(fit.offset + sum(p(x) for p in fit.peaks) - y)) < 1e-12

    def test_random_doublets_recover(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            w1, w2 = rng.uniform(0.2, 0.5, 2)
            c1 = rng.uniform(-1.2, -0.4)
            c2 = rng.uniform(0.4, 1.2)
            if c2 - c1 < max(w1, w2):
                c2 = c1 + max(w1, w2)  # keep peaks at least one width apart
            a1, a2 = rng.uniform(0.5, 1.5, 2)
            off = rng.uniform(0.05, 0.2)
            left = LorentzianModel(c1, w1, a1)
            right = LorentzianModel(c2, w2, a2)
            x = np.linspace(c1 - 6 * w1, c2 + 6 * w2, 501)
            y = off + left(x) + right(x)
            fit = fit_peaks(np.column_stack([x, y]), 2)
            assert fit.converged
            left, right = fit.peaks
            assert left.center == pytest.approx(c1, rel=1e-6, abs=1e-7)
            assert right.center == pytest.approx(c2, rel=1e-6, abs=1e-7)

    def test_flat_data_rejected(self):
        x = np.linspace(0, 1, 50)
        with pytest.raises(DegenerateData):
            fit_peaks(np.column_stack([x, np.full_like(x, 0.25)]), 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0e300, 1.7e308])
    def test_data_whose_sum_of_squares_overflows_is_degenerate(self, scale):
        x = np.linspace(-2.0, 2.0, 41)
        y = scale * LorentzianModel(center=0.0, fwhm=0.5, amplitude=1.0)(x)
        with pytest.raises(DegenerateData, match="sum of squared y values is not finite"):
            fit_peaks(np.column_stack([x, y]), 1)

    def test_unevaluable_fitted_width_is_degenerate(self, monkeypatch):
        """A fit whose width overflows (fwhm/2)**2 is no peak, not a crash."""
        # (centers and widths, amplitudes and offset, cost, converged)
        fit = (np.array([0.0, np.inf]), np.array([1.0, 0.0]), 0.0, True)
        monkeypatch.setattr(analysis, "_variable_projection", lambda *args: fit)
        x = np.linspace(-1.0, 1.0, 41)
        with pytest.raises(DegenerateData, match="fitted peak cannot be evaluated: fwhm"):
            fit_peaks(np.column_stack([x, 1.0 / (1.0 + x * x)]), 1)

    def test_too_few_points_rejected(self):
        x = np.linspace(0, 1, 19)
        with pytest.raises(ValueError, match="at least 20"):
            fit_peaks(np.column_stack([x, x]), 1)
        x = np.linspace(0, 1, 34)
        with pytest.raises(ValueError, match="at least 35"):
            fit_peaks(np.column_stack([x, x]), 2)

    def test_non_increasing_x_rejected(self):
        x = np.zeros(50)
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_peaks(np.column_stack([x, x]), 1)

    def test_peak_count_validated(self):
        x = np.linspace(0, 1, 50)
        with pytest.raises(ValueError, match="n_peaks"):
            fit_peaks(np.column_stack([x, x]), 3)

    def test_points_shape_validated(self):
        with pytest.raises(ValueError, match="pairs"):
            fit_peaks(np.zeros((10, 3)), 1)

    def test_iteration_cap_returns_best_so_far_unconverged(self, monkeypatch):
        """Hitting the cap must hand back the best parameters with
        converged=False, never raise."""
        import atsplit.analysis as analysis

        monkeypatch.setattr(analysis, "_MAX_ITERATIONS", 2)
        truth = LorentzianModel(center=0.3, fwhm=0.35, amplitude=0.8)
        x = np.linspace(-3, 3, 401)
        fit = fit_peaks(np.column_stack([x, 0.01 + truth(x)]), 1)
        assert not fit.converged
        assert fit.residual_rms >= 0.0

    def test_singular_damped_step_raises_damping_and_retries(self, monkeypatch):
        """A damped trial whose projection raises LinAlgError is refused and
        retried with more damping, and the fit still recovers the peak."""
        projection, calls, raised = analysis._projection, [], []

        def first_trial_fails(*args):
            calls.append(args)
            if len(calls) == 2:  # the first trial, after the start
                raised.append(True)
                raise np.linalg.LinAlgError("singular matrix")
            return projection(*args)

        monkeypatch.setattr(analysis, "_projection", first_trial_fails)
        truth = LorentzianModel(center=0.3, fwhm=0.35, amplitude=0.8)
        x = np.linspace(-3, 3, 401)
        fit = fit_peaks(np.column_stack([x, 0.01 + truth(x)]), 1)
        assert raised and fit.converged
        assert fit.peaks[0].center == pytest.approx(0.3, rel=1e-6)
        assert fit.peaks[0].fwhm == pytest.approx(0.35, rel=1e-6)

    def test_local_maxima_match_a_loop(self, paper_model):
        """The maxima equal a plain loop's, tallest first with ties in index
        order, on the six published slices and on 2,000 short integer
        arrays full of plateaus and ties (and arrays too short to have an
        interior)."""
        def loop(y):
            idx = [j for j in range(1, y.size - 1)
                   if y[j] >= y[j - 1] and y[j] >= y[j + 1] and (y[j] > y[j - 1] or y[j] > y[j + 1])]
            return sorted(idx, key=lambda j: y[j], reverse=True)

        rng = np.random.default_rng(7)
        arrays = [sweep.values for sweep in at_slice(paper_model, None, FIG3_COUPLERS)]
        arrays += [rng.integers(0, 4, rng.integers(0, 30)).astype(float) for _ in range(2000)]
        for y in arrays:
            assert analysis._local_maxima(y) == loop(y)

    def test_monotone_data_start_at_their_maximum(self):
        """Half a line, rising to its center at the last point, has no
        interior maximum: the start is taken at the largest value."""
        truth = LorentzianModel(center=0.0, fwhm=0.6, amplitude=0.8)
        x = np.linspace(-3.0, 0.0, 61)
        y = 0.05 + truth(x)
        assert analysis._local_maxima(y) == []
        (peak,) = fit_peaks(np.column_stack([x, y]), 1).peaks
        assert peak.center == pytest.approx(0.0, abs=1e-6)
        assert peak.fwhm == pytest.approx(0.6, rel=1e-6)
        assert peak.amplitude == pytest.approx(0.8, rel=1e-6)

    def test_merged_doublet_is_split_from_its_one_maximum(self):
        """Lines at +-0.1 with width 1.0 form a single maximum; the two-peak
        start splits it symmetrically and the fit recovers both lines."""
        x = np.linspace(-4.0, 4.0, 401)
        y = LorentzianModel(-0.1, 1.0, 1.0)(x) + LorentzianModel(0.1, 1.0, 1.0)(x)
        assert len(analysis._local_maxima(y)) == 1
        fit = fit_peaks(np.column_stack([x, y]), 2)
        assert fit.converged
        for peak, center in zip(fit.peaks, (-0.1, 0.1)):
            assert peak.center == pytest.approx(center, abs=1e-6)
            assert peak.fwhm == pytest.approx(1.0, abs=1e-6)
            assert peak.amplitude == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("omega_c", [2.82, 11.2])
    def test_handover_ignores_roundoff_in_the_data(self, paper_model, omega_c, monkeypatch):
        """Eight perturbations of the slice by 1e-15 relative hand over to
        Gauss-Newton after the same number of projections: the damped loop
        stops while its cost comparisons are still above roundoff.  Only the
        finish's last steps, which are at roundoff, may differ."""
        sweep = at_slice(paper_model, None, [omega_c])[0]
        projection, damped, calls, handovers = analysis._projection, analysis._damped_steps, [], []

        def counting(*args):
            calls.append(args)
            return projection(*args)

        def handing_over(*args):
            result = damped(*args)
            handovers.append(len(calls))
            return result

        monkeypatch.setattr(analysis, "_projection", counting)
        monkeypatch.setattr(analysis, "_damped_steps", handing_over)
        for seed in range(8):
            noise = np.random.default_rng(seed).standard_normal(sweep.values.size)
            calls.clear()
            y = sweep.values * (1.0 + 1e-15 * noise)
            assert fit_peaks(np.column_stack([sweep.axis1, y]), 2).converged
        assert len(set(handovers)) == 1, handovers

    def test_doublet_that_runs_off_is_degenerate(self, paper_model, monkeypatch):
        """At phi_1 = 2/us the 0.354 MHz slice is one broad bump.  From a
        start with widths of the grid's span, the two Lorentzians widen
        without bound and their amplitudes grow to about 1e13 over an offset
        that cancels them: no peak the data hold."""
        rates = dataclasses.replace(paper_model.rates, phi_1=2.0)
        sweep = at_slice(ThreeLevelModel(paper_model.drive, rates), None, [0.354])[0]
        span = float(sweep.axis1[-1] - sweep.axis1[0])
        monkeypatch.setattr(analysis, "_initial_guess",
                            lambda *args: np.array([-0.177, span, 0.177, span]))
        with pytest.raises(DegenerateData, match=r"^fitted amplitude \S+ exceeds 100 times the y"
                                                 r" range 0\.2\d+; no peak to fit$"):
            fit_peaks(np.column_stack([sweep.axis1, sweep.values]), 2)

    def test_dip_fitted_by_a_negative_peak_is_degenerate(self):
        """A Lorentzian dip of depth 0.5 below an offset of 1 holds no peak:
        one Lorentzian fits it exactly with amplitude -0.5, far from zero, so
        the refusal does not rest on roundoff."""
        x = np.linspace(-5.0, 5.0, 101)
        y = 1.0 - 0.5 * 0.25 / ((x - 0.3) ** 2 + 0.25)
        with pytest.raises(DegenerateData, match=r"^fitted amplitude -0\.5 < 0; no peak to fit$"):
            fit_peaks(np.column_stack([x, y]), 1)

    def test_doublet_with_a_dip_above_half_height_starts_about_its_middle(self, paper_model):
        """At T2* = 1 us the 1.41 MHz slice keeps two maxima, but its dip
        stays above half height, so the tallest maximum's half-max width
        spans both and the start splits the bump.  About the midpoint of its
        half-max crossings the start is symmetric and the fit converges to
        two mirrored peaks; about the left maximum it began at centers
        (-1.50, 0.10) and ended at a negative amplitude."""
        rates = rates_from_coherence_times(39.0, 1.0)
        sweep = at_slice(ThreeLevelModel(paper_model.drive, rates), None, [1.41])[0]
        x, y = sweep.axis1, sweep.values
        maxima = analysis._local_maxima(y)
        assert len(maxima) == 2
        assert y[np.argmin(np.abs(x))] - y.min() > 0.5 * (y[maxima[0]] - y.min())
        start = analysis._initial_guess(x, y, 2)
        assert start[0] == -start[2] and start[1] == start[3]
        fit = fit_peaks(np.column_stack([x, y]), 2)
        left, right = fit.peaks
        assert fit.converged
        assert left.center == pytest.approx(-right.center, rel=1e-9)
        assert left.center < 0.0 and left.amplitude > 0.0
        assert left.amplitude == pytest.approx(right.amplitude, rel=1e-9)


class TestPeakSeparation:
    def test_parabola_vertex_is_exact_on_quadratic_peaks(self):
        """Two parabolic bumps with off-grid apexes at -1.23 and 2.01."""
        x = np.linspace(-3.0, 3.0, 61)
        y = np.maximum(1.0 - (x + 1.23) ** 2, 0.9 - 4.0 * (x - 2.01) ** 2)
        assert peak_separation(x, y) == pytest.approx(3.24, rel=1e-12)

    @pytest.mark.parametrize("omega_c", FIG3_COUPLERS)
    def test_matches_fine_grid_maxima(self, paper_model, omega_c):
        """The refined spacing of each published slice agrees with the
        maxima of the same lineshape on a 4001-point grid spanning one
        sample step on either side of each sampled maximum."""
        sweep = at_slice(paper_model, None, [omega_c])[0]
        x, y = sweep.axis1, sweep.values
        step = x[1] - x[0]
        tops = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1
        assert tops.size == 2
        maxima = []
        for j in tops:
            fine = at_slice(paper_model, Grid1D(x[j] - step, x[j] + step, 4001), [omega_c])[0]
            maxima.append(fine.axis1[np.argmax(fine.values)])
        truth = maxima[1] - maxima[0]
        assert peak_separation(x, y) == pytest.approx(truth, rel=1e-3)

    def test_single_peak_is_unresolved(self, paper_model):
        """At omega_c = 0.1 MHz the doublet has merged into one maximum."""
        sweep = at_slice(paper_model, None, [0.1])[0]
        assert peak_separation(sweep.axis1, sweep.values) == 0.0

    def test_fluctuator_background_keeps_both_peaks(self, paper_model):
        """A background Lorentzian under each peak moves the maxima only
        slightly; it must not merge them or hide one."""
        clean = at_slice(paper_model, None, [1.41])[0]
        shifted = clean.values + sum(
            LorentzianModel(center=center, fwhm=0.3, amplitude=0.04)(clean.axis1)
            for center in (-0.705, 0.705)
        )
        assert peak_separation(clean.axis1, shifted) == pytest.approx(
            peak_separation(clean.axis1, clean.values), rel=0.01
        )


class TestDarkStateFidelity:
    def test_null_vector_of_the_hamiltonian_is_the_dark_state(self):
        """At zero detunings the Hamiltonian's null eigenvector has fidelity
        1 at theta = atan2(omega_p, omega_c)."""
        for omega_p, omega_c in ((0.0, 2.0), (1.0, 0.0), (1.5, 1.5), (0.186, 11.2), (0.7, 1.3)):
            h = build_hamiltonian(DriveParams(omega_p=omega_p, omega_c=omega_c))
            evals, vecs = np.linalg.eigh(h)
            null = vecs[:, np.argmin(np.abs(evals))]
            theta = math.atan2(omega_p, omega_c)
            result = dark_state_fidelity(np.outer(null, null.conj()), theta)
            assert result.fidelity == pytest.approx(1.0, abs=1e-14)

    def test_pure_dark_state_has_unit_fidelity(self):
        for theta in (0.0, 0.3, math.pi / 4, math.pi / 2):
            dark = np.array([math.cos(theta), 0.0, -math.sin(theta)])
            rho = np.outer(dark, dark.conj())
            result = dark_state_fidelity(rho, theta)
            assert result.overlap == pytest.approx(1.0, abs=1e-14)
            assert result.fidelity == pytest.approx(1.0, abs=1e-14)

    def test_first_excited_state_is_orthogonal(self):
        result = dark_state_fidelity(ket_bra(1, 1), 0.7)
        assert result.overlap == 0.0
        assert result.fidelity == 0.0

    def test_expansion_identity_on_random_states(self):
        """Direct <D|rho|D> agrees with its density-matrix-element
        expansion, computed independently here."""
        rng = np.random.default_rng(13)
        for _ in range(200):
            rho = random_density_matrix(rng)
            theta = rng.uniform(0.0, math.pi / 2.0)
            expansion = (
                0.5 * math.cos(2 * theta) * (rho[0, 0].real - rho[2, 2].real)
                - 0.5 * math.sin(2 * theta) * (rho[2, 0] + rho[0, 2]).real
                + 0.5 * (1.0 - rho[1, 1].real)
            )
            result = dark_state_fidelity(rho, theta)
            assert result.overlap == pytest.approx(expansion, abs=1e-12)
            assert 0.0 <= result.overlap <= 1.0
            assert result.fidelity == pytest.approx(math.sqrt(max(expansion, 0.0)), abs=1e-12)

    def test_stack_matches_single_states(self):
        rng = np.random.default_rng(15)
        rho = np.array([random_density_matrix(rng) for _ in range(200)])
        theta = rng.uniform(0.0, math.pi / 2.0, 200)
        stacked = dark_state_fidelity(rho, theta)
        assert stacked.overlap.shape == stacked.fidelity.shape == (200,)
        for k in range(200):
            single = dark_state_fidelity(rho[k], theta[k])
            assert type(single.overlap) is float and type(single.fidelity) is float
            assert abs(stacked.overlap[k] - single.overlap) <= 1e-15
            assert abs(stacked.fidelity[k] - single.fidelity) <= 1e-15

    def test_needs_one_angle_per_state(self):
        rho = np.array([ket_bra(0, 0), ket_bra(2, 2)])
        with pytest.raises(ValueError, match="one angle per state"):
            dark_state_fidelity(rho, 0.3)

    def test_nan_state_rejected(self):
        with pytest.raises(NonPhysicalResult):
            dark_state_fidelity(np.diag([math.nan, 0.0, 0.0]), 0.3)

    def test_fidelity_monotone_in_overlap(self):
        rng = np.random.default_rng(14)
        pairs = []
        for _ in range(50):
            rho = random_density_matrix(rng)
            result = dark_state_fidelity(rho, 0.4)
            pairs.append(result)
        pairs.sort(key=lambda r: r.overlap)
        fidelities = [r.fidelity for r in pairs]
        assert fidelities == sorted(fidelities)
