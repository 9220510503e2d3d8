"""Tests for Lorentzian fitting and dark-state metrics."""

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
from atsplit.model import DriveParams, build_hamiltonian, ket_bra

from conftest import FIG3_COUPLERS


def random_density_matrix(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / rho.trace()


class TestLorentzianModel:
    def test_value_at_center(self):
        peak = LorentzianModel(center=0.3, fwhm=0.5, amplitude=0.8, offset=0.1)
        assert peak(0.3) == pytest.approx(0.9, rel=1e-15)

    def test_half_amplitude_points(self):
        peak = LorentzianModel(center=-1.2, fwhm=0.4, amplitude=0.6, offset=0.05)
        for x in (-1.2 - 0.2, -1.2 + 0.2):
            assert peak(x) == pytest.approx(0.05 + 0.3, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_center_far_off_the_grid_leaves_the_offset(self):
        """(x - center)**2 overflows to inf there, without a warning; the
        value is the offset, and ordinary inputs give the same bits."""
        x = np.linspace(-1.0, 1.0, 5)
        far = LorentzianModel(center=1.0e160, fwhm=0.3, amplitude=0.1, offset=0.25)
        assert np.array_equal(far(x), np.full(5, 0.25))
        peak = LorentzianModel(center=0.3, fwhm=0.5, amplitude=0.8, offset=0.1)
        assert np.array_equal(peak(x), 0.1 + 0.8 * 0.0625 / ((x - 0.3) ** 2 + 0.0625))

    def test_invalid_parameters(self):
        for fwhm in (0.0, -1.0, math.nan, 1.0e200, 4.9e-324):  # (fwhm/2)**2 inf or 0
            with pytest.raises(ValueError, match="fwhm"):
                LorentzianModel(center=0, fwhm=fwhm, amplitude=1)
        with pytest.raises(ValueError, match="amplitude"):
            LorentzianModel(center=0, fwhm=1.0, amplitude=-1)


class TestPeakFitType:
    def test_ordering_enforced(self):
        left = LorentzianModel(0.5, 0.3, 1.0, 0.0)
        right = LorentzianModel(-0.5, 0.3, 1.0, 0.0)
        with pytest.raises(ValueError, match="center"):
            PeakFit(peaks=(left, right), residual_rms=0.0, converged=True)

    def test_shared_offset_enforced(self):
        left = LorentzianModel(-0.5, 0.3, 1.0, 0.0)
        right = LorentzianModel(0.5, 0.3, 1.0, 0.1)
        with pytest.raises(ValueError, match="offset"):
            PeakFit(peaks=(left, right), residual_rms=0.0, converged=True)

    def test_negative_residual_rejected(self):
        peak = LorentzianModel(0.0, 0.3, 1.0, 0.0)
        with pytest.raises(ValueError, match="residual_rms"):
            PeakFit(peaks=(peak,), residual_rms=-1e-3, converged=True)


class TestFitPeaks:
    def test_singlet_recovery(self):
        """Noiseless synthetic singlet recovers all parameters to 1e-6."""
        truth = LorentzianModel(center=0.3, fwhm=0.35, amplitude=0.8, offset=0.01)
        x = np.linspace(-3, 3, 401)
        fit = fit_peaks(np.column_stack([x, truth(x)]), 1)
        assert isinstance(fit, PeakFit) and fit.converged
        (peak,) = fit.peaks
        assert peak.center == pytest.approx(0.3, rel=1e-6)
        assert peak.fwhm == pytest.approx(0.35, rel=1e-6)
        assert peak.amplitude == pytest.approx(0.8, rel=1e-6)
        assert peak.offset == pytest.approx(0.01, rel=1e-6)
        assert fit.residual_rms < 1e-10

    def test_doublet_recovery(self):
        left = LorentzianModel(-0.8, 0.3, 0.7, 0.05)
        right = LorentzianModel(0.65, 0.45, 0.9, 0.05)
        x = np.linspace(-4, 4, 501)
        y = left(x) + right(x) - 0.05
        fit = fit_peaks(np.column_stack([x, y]), 2)
        assert isinstance(fit, PeakFit) and fit.converged
        left, right = fit.peaks
        assert left.center == pytest.approx(-0.8, abs=1e-6)
        assert right.center == pytest.approx(0.65, abs=1e-6)
        assert left.offset == right.offset

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
            left = LorentzianModel(c1, w1, a1, off)
            right = LorentzianModel(c2, w2, a2, off)
            x = np.linspace(c1 - 6 * w1, c2 + 6 * w2, 501)
            y = left(x) + right(x) - off
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
        """A best fit whose width overflows (fwhm/2)**2 is no peak, not a crash."""
        best = (np.array([0.0, np.inf, 1.0, 0.0]), 0.0, True)  # (params, cost, converged)
        monkeypatch.setattr(analysis, "_levenberg_marquardt", lambda *args: best)
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

    def test_explicit_init_is_honored(self):
        truth = LorentzianModel(center=2.0, fwhm=0.2, amplitude=1.0, offset=0.0)
        x = np.linspace(0, 4, 201)
        fit = fit_peaks(np.column_stack([x, truth(x)]), 1, init=[1.8, 0.3, 0.8, 0.0])
        assert fit.converged
        assert fit.peaks[0].center == pytest.approx(2.0, rel=1e-8)

    def test_init_length_validated(self):
        x = np.linspace(0, 4, 201)
        y = np.exp(-(x - 2) ** 2)
        with pytest.raises(ValueError, match="init"):
            fit_peaks(np.column_stack([x, y]), 1, init=[1.0, 2.0])

    def test_iteration_cap_returns_best_so_far_unconverged(self, monkeypatch):
        """Hitting the cap must hand back the best parameters with
        converged=False, never raise."""
        import atsplit.analysis as analysis

        monkeypatch.setattr(analysis, "_MAX_ITERATIONS", 2)
        truth = LorentzianModel(center=0.3, fwhm=0.35, amplitude=0.8, offset=0.01)
        x = np.linspace(-3, 3, 401)
        fit = fit_peaks(np.column_stack([x, truth(x)]), 1, init=[0.9, 1.0, 0.3, 0.2])
        assert not fit.converged
        assert fit.residual_rms >= 0.0

    @pytest.mark.parametrize("omega_c", [2.82, 11.2])
    def test_iteration_count_ignores_roundoff_in_the_data(self, paper_model, omega_c, monkeypatch):
        """Eight perturbations of the slice by 1e-15 relative take the same
        number of model evaluations: the stop rule reads the proposed step,
        not which costs roundoff let through."""
        import atsplit.analysis as analysis

        sweep = at_slice(paper_model, None, [omega_c])[0]
        model, calls = analysis._model_and_jacobian, []

        def counting(*args):
            calls.append(args)
            return model(*args)

        monkeypatch.setattr(analysis, "_model_and_jacobian", counting)
        counts = []
        for seed in range(8):
            noise = np.random.default_rng(seed).standard_normal(sweep.values.size)
            calls.clear()
            y = sweep.values * (1.0 + 1e-15 * noise)
            assert fit_peaks(np.column_stack([sweep.axis1, y]), 2).converged
            counts.append(len(calls))
        assert len(set(counts)) == 1, counts


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
