"""Tests for the command-line workbench: config validation, experiment
dispatch, output files, determinism, and exit codes."""

import csv
import os

import numpy as np
import pytest
import yaml

from atsplit import cli
from atsplit.config import bundled_config_path, load, resolve_config_path
from atsplit.errors import ConfigError, NoConvergence, SingularLiouvillian
from atsplit.experiments import Observable, readout_signal
from atsplit.solver import steady_states

BASE_CONFIG = """\
schema: 1
experiment: at_slice
device:
  omega01_ghz: 4.294085
  omega12_ghz: 4.116609
rates:
  t1_us: 39.0
  t2_star_us: 51.0
  ratio_21: 1.41
drive:
  omega_p_mhz: 0.186
  omega_c_mhz: [2.82]
  delta_p_mhz: {start: -6.0, stop: 6.0, count: 161}
  delta_c_mhz: 0.0
output:
  directory: results
  formats: [csv, summary]
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "test.cfg"
    path.write_text(BASE_CONFIG)
    return path


def run_cli(*args):
    return cli.main(list(args))


class TestValidateCommand:
    def test_bundled_paper_config_validates(self, capsys):
        assert run_cli("validate", "paper.cfg") == 0
        out = capsys.readouterr().out
        assert "rates.gamma_10 = 0.025641 /us" in out
        assert "config ok" in out

    def test_resolves_bundled_name(self):
        assert resolve_config_path("paper.cfg") == bundled_config_path("paper.cfg")

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("validate", "/does/not/exist.cfg") == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("omega_p_mhz", "omega_x_mhz"))
        assert run_cli("validate", str(path)) == 2
        assert "drive.omega_x_mhz" in capsys.readouterr().err

    def test_missing_rates_block_exits_2(self, tmp_path, capsys):
        raw = yaml.safe_load(BASE_CONFIG)
        del raw["rates"]
        path = tmp_path / "norates.cfg"
        path.write_text(yaml.safe_dump(raw))
        assert run_cli("validate", str(path)) == 2
        assert "rates" in capsys.readouterr().err

    def test_nonphysical_coherence_exits_2(self, config_file, capsys):
        code = run_cli("validate", str(config_file), "--set", "rates.t2_star_us=120")
        assert code == 2
        assert "dephasing" in capsys.readouterr().err

    def test_strong_coupler_warns_but_validates(self, config_file, capsys):
        code = run_cli("validate", str(config_file), "--set", "drive.omega_c_mhz=[50.0]")
        assert code == 0
        assert "warning" in capsys.readouterr().out

    def test_wrong_schema_version_exits_2(self, config_file, capsys):
        assert run_cli("validate", str(config_file), "--set", "schema=2") == 2
        assert "schema" in capsys.readouterr().err

    def test_validate_writes_nothing(self, config_file, tmp_path, monkeypatch):
        workdir = tmp_path / "empty"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run_cli("validate", str(config_file)) == 0
        assert list(workdir.iterdir()) == []


class TestRunCommand:
    def test_run_writes_csv_manifest_and_summary(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", str(config_file), "--out", str(out), "--jobs", "1") == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["at_slice_omega_c_2.82.csv", "plots.json", "summary.yaml"]

    def test_plot_manifest_names_axes_and_observable(self, config_file, tmp_path):
        import json

        out = tmp_path / "out"
        run_cli("run", str(config_file), "--out", str(out))
        manifest = json.loads((out / "plots.json").read_text())
        entry = manifest["plots"][0]
        assert entry["file"] == "at_slice_omega_c_2.82.csv"
        assert entry["x"] == "delta_p_mhz"
        assert entry["value"] == "pa_sum"
        assert "MHz" in entry["x_label"]

    def test_csv_round_trips_exact_values(self, config_file, tmp_path):
        out = tmp_path / "out"
        run_cli("run", str(config_file), "--out", str(out), "--jobs", "1")
        with open(out / "at_slice_omega_c_2.82.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["delta_p_mhz", "pa_sum"]
        parsed = np.array([[float(v) for v in row] for row in rows[1:]])

        cfg = load(config_file)
        from atsplit.experiments import at_slice
        from atsplit.model import DriveParams, ThreeLevelModel

        base = ThreeLevelModel(DriveParams(omega_p=cfg.omega_p, omega_c=2.82), cfg.rates)
        sweep = at_slice(base, cfg.delta_p, [2.82])[0]
        assert np.array_equal(parsed[:, 0], sweep.axis1)
        assert np.array_equal(parsed[:, 1], sweep.values)

    def test_runs_are_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("run", str(config_file), "--out", str(out1))
        run_cli("run", str(config_file), "--out", str(out2))
        for name in ("at_slice_omega_c_2.82.csv", "summary.yaml"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_contains_fit_metrics(self, config_file, tmp_path):
        out = tmp_path / "out"
        run_cli("run", str(config_file), "--out", str(out))
        text = (out / "summary.yaml").read_text()
        summary = yaml.safe_load(text)
        slice_info = summary["results"]["at_slice"][0]
        assert slice_info["converged"] is True
        assert slice_info["separation_mhz"] == pytest.approx(2.826, rel=0.02)
        assert summary["parameters"]["rates_per_us"]["gamma_10"] == pytest.approx(1 / 39)
        # The Lorentzian-centre spacing is kept beside the peak spacing; the
        # fit pulls its centres inside the maxima of the saturated doublet.
        assert slice_info["fit_separation_mhz"] == pytest.approx(2.826, rel=0.02)
        assert slice_info["fit_separation_mhz"] < slice_info["separation_mhz"]
        assert text.count("converged:") == len(summary["results"]["at_slice"])

    def test_env_var_sets_output_dir(self, config_file, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", str(config_file)) == 0
        assert (target / "summary.yaml").exists()

    def test_out_flag_beats_env_var(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        run_cli("run", str(config_file), "--out", str(out))
        assert (out / "summary.yaml").exists()
        assert not (tmp_path / "ignored").exists()

    def test_set_override_changes_experiment(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", str(config_file),
            "--set", "experiment=fidelity_scan",
            "--set", "drive.omega_c_mhz=[0.707, 11.2]",
            "--set", "drive.delta_p_mhz=0.0",
            "--out", str(out),
        )
        assert code == 0
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        points = summary["results"]["fidelity_scan"]
        assert 0.995 <= points[-1]["fidelity"] <= 0.9995

    def test_run_rejects_bad_config(self, config_file, capsys):
        assert run_cli("run", str(config_file), "--set", "rates.t1_us=-5") == 2


class TestOtherExperiments:
    """Each runner path executes end to end on a small grid."""

    def _run(self, tmp_path, text, name):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        out = tmp_path / f"{name}_out"
        code = run_cli("run", str(path), "--out", str(out), "--jobs", "1")
        return code, out

    def test_probe_spec(self, tmp_path):
        text = BASE_CONFIG.replace("at_slice", "probe_spec").replace(
            "omega_c_mhz: [2.82]", "omega_c_mhz: 0.0"
        ).replace("start: -6.0, stop: 6.0, count: 161", "start: -1.0, stop: 1.0, count: 101")
        code, out = self._run(tmp_path, text, "probe")
        assert code == 0
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["results"]["probe_line"]["center_mhz"] == pytest.approx(0.0, abs=1e-6)
        assert summary["results"]["probe_line"]["f01_ghz"] == pytest.approx(4.294085, abs=1e-6)

    def test_coupler_spec(self, tmp_path):
        text = """\
schema: 1
experiment: coupler_spec
device: {omega01_ghz: 4.294085, omega12_ghz: 4.116609}
rates: {t1_us: 39.0, t2_star_us: 51.0}
drive:
  omega_p_mhz: 0.0
  omega_c_mhz: 2.0
  delta_c_mhz: {start: -5.0, stop: 5.0, count: 81}
"""
        code, out = self._run(tmp_path, text, "coupler")
        assert code == 0
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["results"]["coupler_line"]["f12_ghz"] == pytest.approx(4.116609, abs=1e-5)

    def test_rabi(self, tmp_path):
        text = """\
schema: 1
experiment: rabi
device: {omega01_ghz: 4.294085, omega12_ghz: 4.116609}
rates: {t1_us: 39.0, t2_star_us: 51.0}
drive: {omega_p_mhz: 0.186, omega_c_mhz: 0.0}
pulse:
  durations_us: {start: 0.0, stop: 8.0, count: 81}
"""
        code, out = self._run(tmp_path, text, "rabi")
        assert code == 0
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["results"]["rabi"]["first_maximum_us"] == pytest.approx(
            1 / (2 * 0.186), rel=0.05
        )

    def test_at_map(self, tmp_path):
        text = """\
schema: 1
experiment: at_map
device: {omega01_ghz: 4.294085, omega12_ghz: 4.116609}
rates: {t1_us: 39.0, t2_star_us: 51.0}
drive:
  omega_p_mhz: 0.186
  omega_c_mhz: 0.707
  delta_p_mhz: {start: -2.0, stop: 2.0, count: 21}
  delta_c_mhz: {start: -2.0, stop: 2.0, count: 21}
"""
        code, out = self._run(tmp_path, text, "map")
        assert code == 0
        with open(out / "at_map.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["delta_p_mhz", "delta_c_mhz", "pa_sum"]
        assert len(rows) == 1 + 21 * 21

    def test_eit_scan(self, tmp_path):
        text = """\
schema: 1
experiment: eit_scan
device: {omega01_ghz: 4.294085, omega12_ghz: 4.116609}
rates: {t1_us: 39.0, t2_star_us: 51.0}
drive: {omega_p_mhz: 0.186, omega_c_mhz: 0.0}
eit:
  n_max: 2
  ratio_grid: {start: 0.5, stop: 20.5, count: 11}
"""
        code, out = self._run(tmp_path, text, "eit")
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "eit_scan_n0.csv", "eit_scan_n1.csv", "eit_scan_n2.csv",
            "plots.json", "summary.yaml",
        ]


class TestExitCodeMapping:
    def test_solver_error_exits_3(self, config_file, capsys, monkeypatch):
        def boom(cfg, jobs):
            raise SingularLiouvillian("testing propagation")

        monkeypatch.setitem(cli._RUNNERS, "at_slice", boom)
        assert run_cli("run", str(config_file)) == 3
        assert "solver error" in capsys.readouterr().err

    def test_fit_no_convergence_exits_4(self, config_file, capsys, monkeypatch):
        def boom(cfg, jobs):
            raise NoConvergence("testing propagation")

        monkeypatch.setitem(cli._RUNNERS, "at_slice", boom)
        assert run_cli("run", str(config_file)) == 4
        assert "fit error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "omega_c, duration",
        [
            pytest.param(2.82, "1.0e+12", id="2.82"),
            pytest.param(150.0, "1.0e+12", id="150.0"),
            pytest.param(2.82, "1.0e+300", id="2.82-1e300us"),
        ],
    )
    def test_nothing_to_fit_exits_4(self, config_file, tmp_path, capsys, omega_c, duration):
        """A pulse long enough to relax every detuning to the ground state
        leaves a coupler line flat to roundoff, which grows with the coupler
        amplitude (about 1e-12 at 150 MHz): a fit error, not a traceback
        and not a Lorentzian fitted to roundoff."""
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out), "--jobs", "1"]
        for item in ["experiment=coupler_spec", "drive.omega_p_mhz=0.0",
                     f"drive.omega_c_mhz={omega_c}", "drive.delta_p_mhz=0.0",
                     "drive.delta_c_mhz={start: -5.0, stop: 5.0, count: 41}",
                     f"pulse.duration_us={duration}"]:
            args += ["--set", item]
        assert run_cli(*args) == 4
        err = capsys.readouterr().err
        assert any(line.startswith("fit error") for line in err.splitlines())
        assert "Traceback" not in err

    def test_rabi_to_1e300_us_ends_at_the_driven_steady_state(self, config_file, tmp_path):
        overrides = _RABI + ["pulse.durations_us={start: 0.0, stop: 1.0e+300, count: 11}"]
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out), "--jobs", "1"]
        assert run_cli(*args, *(a for item in overrides for a in ("--set", item))) == 0
        cfg = load(config_file, overrides)
        target = steady_states(0.0, 0.0, cfg.omega_p, 0.0, cfg.rates)[0, 1, 1].real
        with open(out / "rabi.csv", newline="") as f:
            last = float(list(csv.reader(f))[-1][-1])
        assert last == pytest.approx(target, rel=0.0, abs=1e-12)

    def test_require_converged_raises(self):
        class Unconverged:
            converged = False

        with pytest.raises(NoConvergence):
            cli._require_converged(Unconverged(), "test")


_RABI = ["experiment=rabi", "drive.omega_c_mhz=0.0", "drive.delta_p_mhz=0.0"]
_EIT = ["experiment=eit_scan", "drive.omega_c_mhz=0.0", "drive.delta_p_mhz=0.0"]

#: (--set overrides on BASE_CONFIG, the dotted key or block the error must name)
INVALID_CONFIGS = [
    pytest.param(["drive.omega_x_mhz=1.0"], "drive.omega_x_mhz", id="unknown-key"),
    pytest.param(["rates=null"], "rates", id="missing-block"),
    pytest.param(["rates.t1_us=null"], "rates.t1_us", id="missing-key"),
    pytest.param(["drive.omega_p_mhz=fast"], "drive.omega_p_mhz", id="wrong-type"),
    pytest.param(["drive.delta_p_mhz={start: -1.0, stop: 1.0, count: 2.5}"],
                 "drive.delta_p_mhz.count", id="grid-count-not-integer"),
    pytest.param(["output.formats=[pdf]"], "output.formats", id="output-formats"),
    pytest.param(["output.directory=[a, b]"], "output.directory", id="output-directory"),
    pytest.param(["schema=2"], "schema", id="schema-version"),
    pytest.param(["experiment=probe_spec"], "drive.omega_c_mhz", id="needs-probe_spec"),
    pytest.param(["experiment=coupler_spec"], "drive.omega_p_mhz", id="needs-coupler_spec"),
    pytest.param(_RABI, "pulse.durations_us", id="needs-rabi"),
    pytest.param(["experiment=at_map"], "drive.delta_c_mhz", id="needs-at_map"),
    pytest.param(["drive.omega_c_mhz=[2.82, 0.0]"], "drive.omega_c_mhz", id="needs-at_slice"),
    pytest.param(["experiment=fidelity_scan"], "drive.delta_p_mhz", id="needs-fidelity_scan"),
    pytest.param(_EIT + ["drive.omega_p_mhz=0.0"], "drive.omega_p_mhz", id="needs-eit_scan"),
    # Each of these once passed validation and then crashed or misbehaved.
    pytest.param(["drive.omega_p_mhz=.nan"], "drive.omega_p_mhz", id="nan-omega_p"),
    pytest.param(["rates.t1_us=.inf"], "rates.t1_us", id="inf-t1"),
    pytest.param(["rates.ratio_21=.nan"], "rates.ratio_21", id="nan-ratio_21"),
    pytest.param(["rates.gamma_21=.inf"], "rates.gamma_21", id="inf-gamma_21"),
    pytest.param(["drive.delta_p_mhz={start: -1.0, stop: .inf, count: 11}"],
                 "drive.delta_p_mhz.stop", id="inf-grid-stop"),
    pytest.param(["drive.omega_c_mhz=[.nan]"], "drive.omega_c_mhz", id="nan-coupler"),
    pytest.param(_RABI + ["pulse.durations_us={start: -1.0, stop: 1.0, count: 11}"],
                 "pulse.durations_us.start", id="negative-durations"),
    pytest.param(_EIT + ["eit.ratio_grid={start: -1.0, stop: 1.0, count: 11}"],
                 "eit.ratio_grid.start", id="negative-ratio-grid"),
    pytest.param(["drive.omega_c_mhz=[1.0, 1.0000001]"], "drive.omega_c_mhz",
                 id="couplers-equal-under-g"),
    pytest.param(["schema=true"], "schema", id="schema-true"),
]


class TestInvalidConfigs:
    @pytest.mark.parametrize("overrides, key", INVALID_CONFIGS)
    def test_exits_2_naming_the_key(self, config_file, tmp_path, capsys, overrides, key):
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out), "--jobs", "1"]
        for item in overrides:
            args += ["--set", item]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "Traceback" not in err
        assert not out.exists()


_BACKGROUND = ["background.fwhm_mhz=0.3", "background.amplitude=0.02"]
_PROBE_SPEC = ["experiment=probe_spec", "drive.omega_c_mhz=0.0",
               "drive.delta_p_mhz={start: -1.0, stop: 1.0, count: 101}"]

#: (--set overrides on BASE_CONFIG, the CSV to check, the background peaks'
#: shifts from background.center_mhz in MHz).  The signal-level background
#: may take the values outside [0, 1]; the first two rows once crashed.
BACKGROUND_RUNS = [
    pytest.param(_PROBE_SPEC + ["background.fwhm_mhz=0.2", "background.amplitude=2.0"],
                 "probe_spec.csv", (0.0,), id="probe_spec-amplitude-2"),
    pytest.param(_BACKGROUND + ["background.offset=-0.5"],
                 "at_slice_omega_c_2.82.csv", (-1.41, 1.41), id="at_slice-negative-offset"),
    pytest.param(_BACKGROUND + ["background.center_mhz=0.4"],
                 "at_slice_omega_c_2.82.csv", (-1.41, 1.41), id="at_slice-shifted-center"),
]


class TestBackgroundRuns:
    @pytest.mark.parametrize("overrides, csv_name, shifts", BACKGROUND_RUNS)
    def test_csv_is_readout_plus_background(
        self, config_file, tmp_path, capsys, overrides, csv_name, shifts
    ):
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out), "--jobs", "1"]
        for item in overrides:
            args += ["--set", item]
        assert run_cli(*args) == 0
        assert "Traceback" not in capsys.readouterr().err
        cfg = load(config_file, overrides)
        x, values = np.loadtxt(out / csv_name, delimiter=",", skiprows=1).T
        rho = steady_states(x, 0.0, cfg.omega_p, cfg.omega_c_values[0], cfg.rates)
        bg = cfg.background
        half_sq = (bg.fwhm / 2.0) ** 2
        background = bg.offset + sum(
            bg.amplitude * half_sq / ((x - bg.center - shift) ** 2 + half_sq)
            for shift in shifts
        )
        expected = readout_signal(rho, Observable.PA_SUM) + background
        np.testing.assert_allclose(values, expected, rtol=1e-13, atol=1e-15)


class TestConfigLoading:
    def test_overrides_reject_bad_syntax(self, config_file):
        with pytest.raises(ConfigError, match="key=value"):
            load(config_file, ["oops"])

    def test_scalar_or_list_coupler(self, config_file):
        cfg = load(config_file, ["drive.omega_c_mhz=5.0", "experiment=fidelity_scan",
                                 "drive.delta_p_mhz=0.0"])
        assert cfg.omega_c_values == (5.0,)

    def test_auto_grid_resolves_to_none(self, config_file):
        cfg = load(config_file, ["drive.delta_p_mhz=auto"])
        assert cfg.delta_p is None

    def test_rate_overrides_apply(self, config_file):
        cfg = load(config_file, ["rates.gamma_21=0.001"])
        assert cfg.rates.gamma_21 == 0.001
        assert cfg.rates.gamma_10 == pytest.approx(1 / 39)

    def test_experiment_requirements_checked(self, config_file):
        with pytest.raises(ConfigError, match="probe_spec"):
            load(config_file, ["experiment=probe_spec"])  # omega_c != 0

    def test_grid_entries_validated(self, config_file):
        with pytest.raises(ConfigError, match="delta_p_mhz.count"):
            load(config_file, ["drive.delta_p_mhz={start: -1.0, stop: 1.0, count: 2.5}"])
        with pytest.raises(ConfigError, match="delta_p_mhz"):
            load(config_file, ["drive.delta_p_mhz=[1, 2, 3]"])

    def test_override_empty_key_rejected(self, config_file):
        with pytest.raises(ConfigError, match="empty key"):
            load(config_file, ["drive..omega_p_mhz=1.0"])
