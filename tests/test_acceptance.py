"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with the measured numbers.

Criteria with runtime limits are timed with perf_counter and the limit is
asserted alongside the physics.  Random-model distributions follow the
stated ranges: rates uniform in [0.001, 0.1] /us, drive amplitudes in
[0, 20] MHz, detunings in [-20, 20] MHz.
"""

import math
import time

import numpy as np
import pytest

from atsplit import cli
from atsplit.analysis import LorentzianModel, dark_state_fidelity, fit_peaks
from atsplit.config import bundled_config_path, load
from atsplit.experiments import Grid1D, at_map, eit_regime_scan
from atsplit.model import (
    TWO_PI,
    DecoherenceRates,
    DriveParams,
    ThreeLevelModel,
    rates_from_coherence_times,
)
from atsplit.solver import (
    build_liouvillian,
    evolve,
    ket_bra,
    max_cyclic_frequency,
    steady_state,
    vectorize,
)

from conftest import FIG3_COUPLERS, OMEGA_P, T1_US, T2_STAR_US


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_model(rng) -> ThreeLevelModel:
    return ThreeLevelModel(
        DriveParams(
            delta_p=rng.uniform(-20, 20),
            delta_c=rng.uniform(-20, 20),
            omega_p=rng.uniform(0, 20),
            omega_c=rng.uniform(0, 20),
        ),
        DecoherenceRates(*rng.uniform(0.001, 0.1, 5)),
    )


def test_criterion_1_density_matrix_invariants():
    """1000 random steady states obey trace, Hermiticity, positivity, and
    residual bounds in under 5 s."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "residual": 0.0}
    for _ in range(1000):
        model = random_model(rng)
        rho = steady_state(model)
        worst["trace"] = max(worst["trace"], abs(rho.trace().real - 1.0))
        worst["herm"] = max(worst["herm"], float(np.max(np.abs(rho - rho.conj().T))))
        worst["eig"] = min(worst["eig"], float(np.linalg.eigvalsh(rho)[0]))
        residual = float(np.linalg.norm(build_liouvillian(model) @ vectorize(rho)))
        worst["residual"] = max(worst["residual"], residual)
    elapsed = time.perf_counter() - started
    ok = (
        worst["trace"] <= 1e-12
        and worst["herm"] <= 1e-12
        and worst["eig"] >= -1e-10
        and worst["residual"] <= 1e-10
        and elapsed < 5.0
    )
    report(
        1,
        ok,
        f"trace {worst['trace']:.1e}, herm {worst['herm']:.1e}, "
        f"min eig {worst['eig']:.1e}, residual {worst['residual']:.1e}, "
        f"{elapsed:.2f} s for 1000 models",
    )


def test_criterion_2_oracle_equivalence():
    """Steady state agrees with long-time RK4 evolution to 1e-6 on 100
    random models in under 60 s."""
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        target = steady_state(model)
        t_final = 20.0 / min(r for r in model.rates.as_tuple() if r > 0.0)
        dt = 1.0 / (50.0 * max_cyclic_frequency(model))
        trajectory = evolve(model, ket_bra(0, 0), t_final, dt, record_every=10**9)
        worst = max(worst, float(np.max(np.abs(trajectory.final_state() - target))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    report(2, ok, f"worst elementwise gap {worst:.2e}, {elapsed:.2f} s for 100 models")


def test_criterion_3_two_level_limit(paper_rates):
    """With the coupler off, rho11(delta_p) matches the driven two-level
    steady state rho11 = (W^2 g2/2)/(g1 (D^2 + g2^2) + W^2 g2) to 1e-8."""
    g1 = paper_rates.gamma_10
    g2 = g1 / 2.0 + paper_rates.phi_1
    w = TWO_PI * OMEGA_P
    worst = 0.0
    for dp in np.linspace(-1.0, 1.0, 401):
        model = ThreeLevelModel(DriveParams(delta_p=dp, omega_p=OMEGA_P), paper_rates)
        rho11 = steady_state(model)[1, 1].real
        d = TWO_PI * dp
        closed_form = (w * w * g2 / 2.0) / (g1 * (d * d + g2 * g2) + w * w * g2)
        worst = max(worst, abs(rho11 - closed_form))
    ok = worst <= 1e-8
    report(3, ok, f"two-level closed form, worst |diff| {worst:.2e} over 401 points")


def test_criterion_4_t1_t2_regression(paper_rates):
    """Free decay reproduces T1 = 39 us and T2* = 51 us as identities."""
    model = ThreeLevelModel(DriveParams(), paper_rates)
    dt = 1.0 / (50.0 * max_cyclic_frequency(model))

    trajectory = evolve(model, ket_bra(1, 1), T1_US, dt, record_every=10**9)
    t1_gap = abs(trajectory.final_state()[1, 1].real - math.exp(-1.0))

    plus = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    rho0 = np.outer(plus, plus.conj())
    trajectory = evolve(model, rho0, T2_STAR_US, dt, record_every=10**9)
    coherence = trajectory.final_state()[0, 1].real
    rate = -math.log(coherence / 0.5) / T2_STAR_US
    rate_gap = abs(rate * T2_STAR_US - 1.0)

    ok = t1_gap <= 1e-4 and rate_gap <= 1e-3
    report(
        4,
        ok,
        f"rho11(39us) vs 1/e gap {t1_gap:.2e}; rho01 rate vs 1/51us "
        f"relative gap {rate_gap:.2e}",
    )


@pytest.fixture(scope="module")
def paper_slice_fits():
    """Doublet fits of the bundled published-parameter slice run, with the
    procedure the CLI uses (default grids, each fit started from its data)."""
    cfg = load(bundled_config_path("paper.cfg"))
    started = time.perf_counter()
    _, results = cli.run_experiment(cfg)
    elapsed = time.perf_counter() - started
    return results["at_slice"], elapsed


def test_criterion_5_figure3_regression(paper_slice_fits):
    """Doublet separations match sqrt(omega_p^2 + omega_c^2) within 2% for
    the four strongest couplers; the two weakest are partially merged."""
    slices, elapsed = paper_slice_fits
    lines = []
    ok = elapsed < 30.0
    for info in slices:
        omega_c = info["omega_c_mhz"]
        expected = math.hypot(OMEGA_P, omega_c)
        rel = info["separation_mhz"] / expected - 1.0
        lines.append(f"{omega_c:g}: sep {info['separation_mhz']:.4f} ({rel:+.2%})")
        if omega_c in (0.354, 0.707):
            ok = ok and info["converged"] and info["separation_over_fwhm"] < 3.0
        else:
            ok = ok and info["converged"] and abs(rel) <= 0.02
    report(5, ok, f"{'; '.join(lines)}; {elapsed:.2f} s")


def test_criterion_6_separation_in_linewidths(paper_slice_fits):
    """At the strongest coupler the doublet spans 24 to 40 linewidths."""
    slices, _ = paper_slice_fits
    info = next(s for s in slices if s["omega_c_mhz"] == 11.2)
    ratio = info["separation_over_fwhm"]
    ok = 24.0 <= ratio <= 40.0
    report(6, ok, f"separation/mean-FWHM = {ratio:.1f} at omega_c = 11.2 MHz")


def test_criterion_7_dark_state_fidelity(paper_rates):
    """Steady-state dark-state fidelity at the strongest coupler brackets
    the published 99.6 to 99.9% range."""
    model = ThreeLevelModel(DriveParams(omega_p=OMEGA_P, omega_c=11.2), paper_rates)
    rho = steady_state(model)
    theta = math.atan2(OMEGA_P, 11.2)
    fidelity = dark_state_fidelity(rho, theta).fidelity
    ok = 0.995 <= fidelity <= 0.9995
    report(7, ok, f"fidelity {fidelity:.6f} in [0.995, 0.9995]")


def test_criterion_8_eit_curve_ordering(paper_rates):
    """Scaling down the 2-1 relaxation raises fidelity pointwise; at unit
    drive ratio the n=9 curve beats n=0 by at least 0.05."""
    base = ThreeLevelModel(DriveParams(omega_p=OMEGA_P), paper_rates)
    ratio_grid = Grid1D(0.25, 60.25, 81)  # includes ratio 1.0 exactly
    curves = eit_regime_scan(base, 9, ratio_grid)
    values = np.array([c.values for c in curves])
    min_step = float(np.diff(values, axis=0).min())
    unit_index = int(np.argmin(np.abs(curves[0].axis1 - 1.0)))
    assert curves[0].axis1[unit_index] == 1.0
    gap = float(values[9, unit_index] - values[0, unit_index])
    ok = min_step >= 0.0 and gap >= 0.05
    report(
        8,
        ok,
        f"min pointwise fidelity step over n: {min_step:.2e}; "
        f"gap at unit ratio {gap:.3f}",
    )


def test_criterion_9_figure2_structure(paper_rates):
    """Automated ridge extraction: the weak-coupler map shows the probe
    line and the two-photon sideband; the strong-coupler zero-detuning row
    is a resolved doublet.  201x201 map in under 10 s."""
    base = ThreeLevelModel(DriveParams(omega_p=OMEGA_P, omega_c=0.177), paper_rates)
    span = 2.0 * 0.177 + 2.0
    grid = Grid1D(-span, span, 201)
    started = time.perf_counter()
    weak_map = at_map(base, grid, grid)
    elapsed = time.perf_counter() - started

    dp, dc = weak_map.axis1, weak_map.axis2
    vertical_hits, diagonal_hits, n_rows = 0, 0, 0
    for j in range(len(dc)):
        if not (1.0 <= abs(dc[j]) <= 2.0):
            continue
        row = weak_map.values[:, j]
        maxima = [
            i
            for i in range(1, len(dp) - 1)
            if row[i] >= row[i - 1] and row[i] >= row[i + 1] and row[i] > row.min() + 1e-6
        ]
        n_rows += 1
        if any(abs(dp[i]) < 0.25 for i in maxima):
            vertical_hits += 1
        if any(abs(dp[i] + dc[j]) < 0.25 for i in maxima):
            diagonal_hits += 1

    strong = ThreeLevelModel(DriveParams(omega_p=OMEGA_P, omega_c=2.82), paper_rates)
    strong_span = 2.0 * 2.82 + 2.0
    strong_map = at_map(strong, Grid1D(-strong_span, strong_span, 201), Grid1D(-1.0, 1.0, 5))
    j_zero = int(np.argmin(np.abs(strong_map.axis2)))
    row = strong_map.values[:, j_zero]
    i_zero = int(np.argmin(np.abs(strong_map.axis1)))
    is_local_min = row[i_zero] < row[i_zero - 1] and row[i_zero] < row[i_zero + 1]
    left_peak = int(np.argmax(row[:i_zero]))
    right_peak = i_zero + int(np.argmax(row[i_zero:]))
    has_two_maxima = left_peak < i_zero < right_peak

    ok = (
        n_rows > 0
        and vertical_hits >= 0.9 * n_rows
        and diagonal_hits >= 0.9 * n_rows
        and is_local_min
        and has_two_maxima
        and elapsed < 10.0
    )
    report(
        9,
        ok,
        f"ridges: probe {vertical_hits}/{n_rows}, sideband {diagonal_hits}/{n_rows}; "
        f"doublet row local min at 0: {is_local_min}; 201x201 in {elapsed:.2f} s",
    )


def _packed(fit):
    """A fit's parameters as (center, fwhm, amplitude) per peak, then the offset."""
    return [v for p in fit.peaks for v in (p.center, p.fwhm, p.amplitude)] + [fit.peaks[0].offset]


def _relative_gaps(fit_params, truth):
    return [abs(fitted / true - 1.0) for fitted, true in zip(fit_params, truth)]


def test_criterion_10_fit_recovery():
    """Noiseless synthetic peaks recover to 1e-6 relative; with 1% uniform
    noise, to 2%; 100 random draws of each kind."""
    rng = np.random.default_rng(110)
    worst_clean, worst_noisy = 0.0, 0.0
    for draw in range(100):
        n_peaks = 1 if draw % 2 == 0 else 2
        offset = rng.uniform(0.1, 0.3)
        if n_peaks == 1:
            center = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
            width = rng.uniform(0.2, 0.5)
            amplitude = rng.uniform(0.5, 1.5)
            truth = [center, width, amplitude, offset]
            peaks = [LorentzianModel(center, width, amplitude, offset)]
            x = np.linspace(center - 6 * width, center + 6 * width, 601)
        else:
            w1, w2 = rng.uniform(0.2, 0.5, 2)
            c1 = rng.uniform(-1.2, -0.4)
            c2 = rng.uniform(0.4, 1.2)
            if c2 - c1 < max(w1, w2):
                c2 = c1 + max(w1, w2)
            a1, a2 = rng.uniform(0.5, 1.5, 2)
            truth = [c1, w1, a1, c2, w2, a2, offset]
            peaks = [
                LorentzianModel(c1, w1, a1, offset),
                LorentzianModel(c2, w2, a2, offset),
            ]
            x = np.linspace(c1 - 6 * w1, c2 + 6 * w2, 601)

        y = sum(p(x) for p in peaks) - (n_peaks - 1) * offset

        fit = fit_peaks(np.column_stack([x, y]), n_peaks)
        params = _packed(fit)
        assert fit.converged
        worst_clean = max(worst_clean, max(_relative_gaps(params, truth)))

        amp_scale = max(p.amplitude for p in peaks)
        noisy = y + rng.uniform(-0.01, 0.01, x.size) * amp_scale
        fit = fit_peaks(np.column_stack([x, noisy]), n_peaks)
        params = _packed(fit)
        worst_noisy = max(worst_noisy, max(_relative_gaps(params, truth)))

    ok = worst_clean <= 1e-6 and worst_noisy <= 0.02
    report(
        10,
        ok,
        f"noiseless worst relative gap {worst_clean:.2e}; "
        f"1%-noise worst relative gap {worst_noisy:.2%}",
    )


def test_criterion_11_overlap_expansion_identity():
    """Direct <D|rho|D> and its matrix-element expansion agree to 1e-12
    over 1000 random (rho, theta) pairs."""
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho = rho / rho.trace()
        theta = rng.uniform(0.0, math.pi / 2.0)
        expansion = (
            0.5 * math.cos(2 * theta) * (rho[0, 0].real - rho[2, 2].real)
            - 0.5 * math.sin(2 * theta) * (rho[2, 0] + rho[0, 2]).real
            + 0.5 * (1.0 - rho[1, 1].real)
        )
        overlap = dark_state_fidelity(rho, theta).overlap
        worst = max(worst, abs(overlap - expansion))
    ok = worst <= 1e-12
    report(11, ok, f"worst |direct - expansion| = {worst:.2e} over 1000 pairs")


def test_criterion_12_cli_reproducibility(tmp_path):
    """Two runs of the bundled published-parameter config produce byte
    identical output files."""
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["run", "paper.cfg", "--out", str(out1)]) == 0
    assert cli.main(["run", "paper.cfg", "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = names1 == names2 and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names1
    )
    report(12, identical, f"{len(names1)} files byte-identical across runs")
