"""Tests for domain types, the rotating-frame Hamiltonian, and collapse
operators, including the coherence-time identities they must reproduce."""

import math

import numpy as np
import pytest

from atsplit.errors import NonPhysicalResult
from atsplit.model import (
    TWO_PI,
    DecoherenceRates,
    DeviceSpec,
    DriveParams,
    ThreeLevelModel,
    rates_from_coherence_times,
    validate_three_level,
)
from atsplit.solver import (
    EIG_FLOOR,
    below_eig_floor,
    build_hamiltonian,
    check_density_matrix,
    collapse_operators,
    evolve,
    ket_bra,
    max_cyclic_frequency,
)


class TestDeviceSpec:
    def test_alpha_is_derived(self, paper_device):
        assert paper_device.alpha == pytest.approx(177.476, abs=1e-9)

    def test_negative_anharmonicity_rejected(self):
        with pytest.raises(ValueError, match="anharmonicity"):
            DeviceSpec(omega01=4.0, omega12=4.2)

    @pytest.mark.parametrize("omega01", [1.7e308, math.inf, math.nan])
    def test_anharmonicity_that_is_not_finite_rejected(self, omega01):
        with pytest.raises(ValueError, match="anharmonicity must be positive and finite"):
            DeviceSpec(omega01=omega01, omega12=4.116609)


class TestDriveParams:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="Rabi amplitudes"):
            DriveParams(omega_p=-0.1)

    def test_detunings_may_be_negative(self):
        DriveParams(delta_p=-5.0, delta_c=-3.0)


class TestThreeLevelModel:
    def test_with_drive_replaces_only_named_fields(self, paper_rates):
        model = ThreeLevelModel(DriveParams(0.1, 0.2, 0.3, 0.4), paper_rates)
        changed = model.with_drive(delta_c=-1.0, omega_p=0.0)
        assert changed == ThreeLevelModel(DriveParams(0.1, -1.0, 0.0, 0.4), paper_rates)
        assert model.drive.delta_c == 0.2

    def test_with_drive_validates(self, paper_rates):
        model = ThreeLevelModel(DriveParams(), paper_rates)
        with pytest.raises(ValueError, match="Rabi amplitudes"):
            model.with_drive(omega_c=-1.0)
        with pytest.raises(TypeError):
            model.with_drive(omega_x=1.0)


class TestDecoherenceRates:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="gamma_21"):
            DecoherenceRates(gamma_10=0.01, gamma_21=-0.01)

    def test_no_upward_rates_expressible(self):
        # The type has exactly the three downward and two dephasing fields.
        fields = set(DecoherenceRates.__dataclass_fields__)
        assert fields == {"gamma_10", "gamma_21", "gamma_20", "phi_1", "phi_2"}


class TestBuildHamiltonian:
    def test_all_zero_drive_gives_zero_matrix(self):
        h = build_hamiltonian(DriveParams())
        assert np.array_equal(h, np.zeros((3, 3)))

    def test_matrix_entries(self):
        h = build_hamiltonian(DriveParams(delta_p=1.5, delta_c=-2.0, omega_p=0.4, omega_c=3.0))
        assert h[1, 1] == pytest.approx(-TWO_PI * 1.5)
        assert h[2, 2] == pytest.approx(-TWO_PI * (1.5 - 2.0))
        assert h[1, 0] == pytest.approx(TWO_PI * 0.2)
        assert h[2, 1] == pytest.approx(TWO_PI * 1.5)
        assert h[0, 0] == 0.0 and h[2, 0] == 0.0 and h[0, 2] == 0.0

    def test_zero_detuning_eigenvalues_match_direct_diagonalization(self):
        """Splitting equals the generalized Rabi frequency of both drives."""
        omega_p, omega_c = 0.186, 11.2
        h = build_hamiltonian(DriveParams(omega_p=omega_p, omega_c=omega_c))
        evals = np.sort(np.linalg.eigvalsh(h))
        rabi = TWO_PI * math.hypot(omega_p, omega_c) / 2.0
        np.testing.assert_allclose(evals, [-rabi, 0.0, rabi], atol=1e-12)

    def test_dark_eigenvector_at_zero_detuning(self):
        omega_p, omega_c = 0.186, 11.2
        h = build_hamiltonian(DriveParams(omega_p=omega_p, omega_c=omega_c))
        theta = math.atan2(omega_p, omega_c)
        dark = np.array([math.cos(theta), 0.0, -math.sin(theta)])
        np.testing.assert_allclose(h @ dark, np.zeros(3), atol=1e-12)

    def test_hermitian_for_random_drives(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            drive = DriveParams(
                delta_p=rng.uniform(-50, 50),
                delta_c=rng.uniform(-50, 50),
                omega_p=rng.uniform(0, 50),
                omega_c=rng.uniform(0, 50),
            )
            h = build_hamiltonian(drive)
            assert np.max(np.abs(h - h.conj().T)) == 0.0


class TestCollapseOperators:
    def test_zero_rates_give_five_zero_matrices(self):
        ops = collapse_operators(DecoherenceRates(0.0, 0.0, 0.0, 0.0, 0.0))
        assert len(ops) == 5
        for op in ops:
            assert np.array_equal(op, np.zeros((3, 3)))

    def test_operator_count_is_stable(self, paper_rates):
        assert len(collapse_operators(paper_rates)) == 5

    def test_structure(self, paper_rates):
        """Relaxation operators only connect down in energy (single entry
        above the diagonal); dephasing operators are diagonal."""
        ops = collapse_operators(paper_rates)
        for op in ops[:3]:
            assert np.count_nonzero(op) <= 1
            assert np.array_equal(np.tril(op), np.zeros((3, 3)))
        for op in ops[3:]:
            assert np.array_equal(op, np.diag(np.diag(op)))

    def test_amplitudes(self, paper_rates):
        ops = collapse_operators(paper_rates)
        assert ops[0][0, 1] == pytest.approx(math.sqrt(paper_rates.gamma_10))
        assert ops[1][1, 2] == pytest.approx(math.sqrt(paper_rates.gamma_21))
        assert np.array_equal(ops[2], np.zeros((3, 3)))  # gamma_20 = 0
        assert ops[3][1, 1] == pytest.approx(math.sqrt(2 * paper_rates.phi_1))
        assert ops[4][2, 2] == pytest.approx(math.sqrt(2 * paper_rates.phi_2))

    def test_coherence_decay_rate_reproduces_t2_star(self, paper_rates):
        """With no drives, rho01 must decay at gamma_10/2 + phi_1 = 1/T2*,
        i.e. 19.6e-3 per us; verified with the time-evolution oracle."""
        model = ThreeLevelModel(DriveParams(), paper_rates)
        psi = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        dt = 1.0 / (50.0 * max_cyclic_frequency(model))
        traj = evolve(model, rho0, 30.0, dt, record_every=10**9)
        measured = -math.log(traj.final_state()[0, 1].real / 0.5) / 30.0
        expected = paper_rates.gamma_10 / 2.0 + paper_rates.phi_1
        assert measured == pytest.approx(expected, rel=1e-5)
        assert expected == pytest.approx(1.0 / 51.0, rel=1e-12)
        assert round(expected, 4) == 0.0196


class TestRatesFromCoherenceTimes:
    def test_published_values(self):
        rates = rates_from_coherence_times(39.0, 51.0, 1.41)
        assert rates.gamma_10 == pytest.approx(1.0 / 39.0, rel=1e-15)
        assert rates.phi_1 == pytest.approx(1.0 / 51.0 - 1.0 / 78.0, rel=1e-15)
        assert rates.phi_2 == rates.phi_1
        assert rates.gamma_21 == pytest.approx(1.41 / 39.0, rel=1e-15)
        assert rates.gamma_20 == 0.0
        # Quoted 2-significant-figure values in 1/s.
        assert round(rates.gamma_10 * 1e6, -3) == 26e3
        assert float(f"{rates.phi_1 * 1e6:.2g}") == 6.8e3  # 6787/s rounds to 6.8e3

    def test_relaxation_limited_t2_gives_zero_dephasing(self):
        rates = rates_from_coherence_times(10.0, 20.0, 1.0)
        assert rates.phi_1 == 0.0

    def test_t2_star_above_twice_t1_rejected(self):
        with pytest.raises(ValueError, match="pure dephasing rate would be negative"):
            rates_from_coherence_times(10.0, 25.0, 1.0)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError):
            rates_from_coherence_times(0.0, 10.0)

    def test_round_trip_identities(self):
        """1/gamma_10 recovers T1 and 1/(gamma_10/2 + phi_1) recovers T2*."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            t1 = rng.uniform(1.0, 200.0)
            t2 = rng.uniform(0.1, 2.0) * t1
            if t2 > 2.0 * t1:
                t2 = 2.0 * t1
            rates = rates_from_coherence_times(t1, t2)
            assert 1.0 / rates.gamma_10 == pytest.approx(t1, rel=1e-12)
            assert 1.0 / (rates.gamma_10 / 2.0 + rates.phi_1) == pytest.approx(t2, rel=1e-12)


class TestValidateThreeLevel:
    def test_published_coupler_is_quiet(self, paper_device):
        warnings = validate_three_level(DriveParams(omega_c=11.2), paper_device)
        assert warnings == []

    def test_strong_coupler_warns(self, paper_device):
        warnings = validate_three_level(DriveParams(omega_c=50.0), paper_device)
        assert any("coupler amplitude" in w for w in warnings)

    def test_strong_probe_warns(self, paper_device):
        warnings = validate_three_level(DriveParams(omega_p=40.0), paper_device)
        assert any("probe amplitude" in w for w in warnings)

    def test_detuning_at_two_photon_line_warns(self, paper_device):
        warnings = validate_three_level(DriveParams(delta_p=-88.5), paper_device)
        assert any("two-photon" in w for w in warnings)

    def test_small_detuning_is_quiet(self, paper_device):
        assert validate_three_level(DriveParams(delta_p=10.0), paper_device) == []

    def test_every_rule_fires_in_order_with_exact_text(self, paper_device):
        drive = DriveParams(delta_p=-88.5, delta_c=50.0, omega_p=40.0, omega_c=50.0)
        levels = "higher transmon levels may contribute"
        line = "two-photon 0-2 line at -alpha/2 = -88.738 MHz"
        assert validate_three_level(drive, paper_device) == [
            f"coupler amplitude 50.0 MHz exceeds alpha/5 = 35.4952 MHz; {levels}",
            f"probe amplitude 40.0 MHz exceeds alpha/5 = 35.4952 MHz; {levels}",
            f"probe detuning -88.5 MHz is within reach of the {line}",
            f"coupler detuning 50.0 MHz is within reach of the {line}",
        ]


def rotated(rng, spectra):
    """U diag(s) U^H for one seeded random unitary U per row s of spectra."""
    z = rng.normal(size=(len(spectra), 3, 3)) + 1j * rng.normal(size=(len(spectra), 3, 3))
    u = np.linalg.qr(z)[0]
    return (u * spectra[:, None, :]) @ u.conj().transpose(0, 2, 1)


class TestEigenvalueFloor:
    """``below_eig_floor`` against the eigenvalue oracle it replaces."""

    def test_agrees_with_eigvalsh_away_from_the_floor(self):
        rng = np.random.default_rng(11)
        n = 20000
        eps = 10.0 ** rng.uniform(-16.0, -1.0, n)
        tiny = rng.choice([0.0, 1e-17, 1e-13], n) * rng.uniform(0.0, 1.0, n)
        delta = 10.0 ** rng.uniform(-17.0, -8.0, n) * rng.choice([-1.0, 1.0], n)
        near = rng.permuted(np.stack([1.0 - eps, tiny, EIG_FLOOR + delta], axis=1), axis=1)
        x = rng.uniform(0.0, 1.0, (n // 4, 1))
        rank_1 = np.hstack([np.ones_like(x), 0.0 * x, 0.0 * x])
        rank_2 = np.hstack([x, 1.0 - x, 0.0 * x])
        stack = rotated(rng, np.vstack([near, rank_1, rank_2]))
        lowest = np.linalg.eigvalsh(stack)[:, 0]
        below = below_eig_floor(stack)
        disagree = below != ~(lowest >= EIG_FLOOR)
        assert np.all(np.abs(lowest[disagree] - EIG_FLOOR) <= 1e-14)
        assert not below[n:].any()
        clear = np.abs(lowest - EIG_FLOOR) > 1e-14
        assert 0.3 < below[:n][clear[:n]].mean() < 0.7

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    def test_nan_fails(self, i, j):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rho[i, j] = rho[j, i] = math.nan
        assert below_eig_floor(np.array([rho, np.full((3, 3), math.nan)])).all()

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_zero_pivot_passes_only_over_zeros(self, k):
        """A diagonal entry exactly at the floor is a zero pivot: it passes
        over zeros, fails once an entry couples it to a later row, and
        leaves the pivots after it checked."""
        diagonal = np.full(3, 0.5)
        diagonal[k], diagonal[(k + 1) % 3] = EIG_FLOOR, 0.5 - EIG_FLOOR
        at_floor = np.diag(diagonal).astype(complex)
        coupled = at_floor.copy()
        i, j = sorted((k, (k + 1) % 3), reverse=True)
        coupled[i, j], coupled[j, i] = 1e-3j, -1e-3j
        diagonal[(k + 1) % 3] = -0.5
        negative_after = np.diag(diagonal).astype(complex)
        assert np.linalg.eigvalsh(coupled)[0] < EIG_FLOOR
        decided = below_eig_floor(np.array([at_floor, coupled, negative_after]))
        assert decided.tolist() == [False, True, True]


class TestMatrixChecks:
    def test_check_density_matrix_rejects_bad_trace(self):
        with pytest.raises(NonPhysicalResult, match="trace"):
            check_density_matrix(np.diag([0.5, 0.4, 0.2]))

    def test_check_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(NonPhysicalResult, match="eigenvalue"):
            check_density_matrix(np.diag([1.1, -0.1, 0.0]))

    def test_check_density_matrix_allows_roundoff_floor(self):
        check_density_matrix(np.diag([1.0 + 5e-11, -5e-11, 0.0]))
        check_density_matrix(np.diag([1.0 + 1e-10, -1e-10, 0.0]))  # exactly at the floor

    @pytest.mark.parametrize(
        "rho",
        [np.diag([math.nan, 0.0, 0.0]), np.full((3, 3), math.nan)],
        ids=["one_nan", "all_nan"],
    )
    def test_check_density_matrix_rejects_nan(self, rho):
        with pytest.raises(NonPhysicalResult):
            check_density_matrix(rho)

    def test_check_density_matrix_rejects_non_finite_before_arithmetic(self):
        """A state that is not finite is named as such, before the checks that
        do arithmetic on it, whose inf - inf does not warn (a warning is an
        error under this suite's filterwarnings)."""
        with pytest.raises(NonPhysicalResult, match="^density matrix not finite"):
            check_density_matrix(np.diag([math.inf, 0.0, 0.0]))
        stack = np.array([ket_bra(0, 0), ket_bra(1, 1), np.diag([math.nan, 0.0, 0.0])])
        with pytest.raises(NonPhysicalResult, match="density matrix 2 of 3 not finite"):
            check_density_matrix(stack)

    def test_check_density_matrix_accepts_a_stack(self):
        stack = np.array([np.diag([1.0, 0.0, 0.0]), np.diag([0.2, 0.3, 0.5]), ket_bra(2, 2)])
        assert check_density_matrix(stack).shape == (3, 3, 3)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (ket_bra(0, 1) + np.diag([0.5, 0.5, 0.0]), "not Hermitian"),
            (np.diag([0.5, 0.4, 0.2]), "trace"),
            (np.diag([1.1, -0.1, 0.0]), "eigenvalue"),
        ],
        ids=["hermiticity", "trace", "eigenvalue"],
    )
    def test_check_density_matrix_names_first_failing_state(self, bad, reason):
        stack = np.array([ket_bra(0, 0), ket_bra(1, 1), bad, ket_bra(2, 2), bad])
        with pytest.raises(NonPhysicalResult, match=f"density matrix 2 of 5 .*{reason}"):
            check_density_matrix(stack)

    def test_check_density_matrix_names_the_first_state_across_checks(self):
        """A stack names its first failing state, by the first check that
        state fails, though a later state fails an earlier check.  The state
        that is not finite goes through every check, and its inf - inf does
        not warn."""
        non_hermitian = ket_bra(0, 1) + np.diag([0.5, 0.5, 0.0])
        with pytest.raises(NonPhysicalResult, match="^density matrix 0 of 2 not Hermitian"):
            check_density_matrix(np.array([non_hermitian, np.diag([math.inf, 0.0, 0.0])]))
        with pytest.raises(NonPhysicalResult,
                           match=r"^density matrix 0 of 2 has eigenvalue -1\.000e-09$"):
            check_density_matrix(np.array([np.diag([1.0 + 1e-9, -1e-9, 0.0]), non_hermitian]))

    def test_check_density_matrix_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            check_density_matrix(np.zeros((2, 2, 3, 3)))

    def test_basis_helpers(self):
        assert np.array_equal(ket_bra(1, 2), np.outer(np.eye(3)[1], np.eye(3)[2]))
