"""Tests for the command-line workbench: config validation, experiment
dispatch, output files, determinism, and exit codes."""

import ast
import csv
import dataclasses
import os
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from atsplit import cli, experiments
from atsplit import config as config_mod
from atsplit.config import EXPERIMENTS, bundled_config_path, load, resolve_config_path
from atsplit.errors import ConfigError, DegenerateData, NoConvergence, SingularLiouvillian
from atsplit.experiments import Observable, SweepResult
from atsplit.model import DeviceSpec, DriveParams, validate_three_level
from atsplit.solver import steady_states

from conftest import ROOT, load_module

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
        assert "  rates_per_us:\n    gamma_10: 0.02564102564102564\n" in out
        assert out.splitlines()[-1] == "config ok"

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

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_records_only_the_pulse_key_the_run_reads(self, experiment, capsys):
        """Every experiment accepts both pulse keys, but ``parameters`` holds
        ``pulse.duration_us`` only for coupler_spec and ``pulse.durations_us``
        only for rabi, the runs that read them."""
        paper_set = load_module(ROOT / "tools" / "paper_set.py")
        durations = {"start": 0.0, "stop": 2.0, "count": 5}
        overrides = paper_set.RUNS[experiment] + [
            "pulse.duration_us=1.0", f"pulse.durations_us={durations}"]
        assert run_cli("validate", "paper.cfg", *_set_args(overrides)) == 0
        printed = yaml.safe_load(capsys.readouterr().out.removesuffix("config ok\n"))
        read = {"coupler_spec": {"duration_us": 1.0}, "rabi": {"durations_us": durations}}
        assert printed["parameters"].get("pulse") == read.get(experiment)

    def test_validate_writes_nothing(self, config_file, tmp_path, monkeypatch):
        workdir = tmp_path / "empty"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run_cli("validate", str(config_file)) == 0
        assert list(workdir.iterdir()) == []


class TestRunCommand:
    def test_a_patched_fit_peaks_survives_the_first_run(self, tmp_path, monkeypatch):
        """``bench/trace_cli.py`` replaces ``cli.fit_peaks`` before ``main``
        runs; loading the numerics for ``run`` must keep the replacement."""
        calls = []
        real = cli.fit_peaks

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_peaks", counting)
        overrides = load_module(ROOT / "tools" / "paper_set.py").RUNS["probe_spec"]
        assert run_cli("run", "paper.cfg", "--out", str(tmp_path), *_set_args(overrides)) == 0
        assert calls == [1]

    def test_run_writes_csv_manifest_and_summary(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", str(config_file), "--out", str(out)) == 0
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
        run_cli("run", str(config_file), "--out", str(out))
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

    def test_map_csv_is_written_row_by_row(self, tmp_path):
        """A 301x301 map goes to disk one formatted row at a time (its text
        as one string traced 9.3 MB), with the bytes of the row format."""
        axis = np.linspace(-7.64, 7.64, 301)
        values = np.random.default_rng(5).random((axis.size, axis.size))
        sweep = SweepResult(axis, values, Observable.PA_SUM, "delta_p_mhz", axis, "delta_c_mhz")
        path = tmp_path / "at_map.csv"
        tracemalloc.start()
        try:
            cli._atomic_write(path, cli._sweep_csv(sweep))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        rows = [
            f"{x!r},{y!r},{v!r}\n"
            for x, row in zip(axis.tolist(), values.tolist())
            for y, v in zip(axis.tolist(), row)
        ]
        assert path.read_text() == "delta_p_mhz,delta_c_mhz,pa_sum\n" + "".join(rows)
        assert [p.name for p in tmp_path.iterdir()] == ["at_map.csv"]

    def test_out_flag_beats_output_directory(self, config_file, tmp_path):
        out = tmp_path / "explicit"
        run_cli("run", str(config_file), "--out", str(out),
                "--set", f"output.directory={tmp_path / 'ignored'}")
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
        code = run_cli("run", str(path), "--out", str(out))
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

    def test_rabi_reports_the_first_maximum_of_an_undamped_trace(self, tmp_path):
        """T1 = 1e12 us and T2* = 2 T1 leave rates of 1e-12 and no dephasing:
        the trace reaches 1 at each odd multiple of the half period 2.688 us;
        on a 0.05 us grid the first lies at 2.7 us."""
        args = ["run", "paper.cfg", "--out", str(tmp_path), *_set_args(
            ["experiment=rabi", "drive.omega_c_mhz=0.0",
             "pulse.durations_us={start: 0.0, stop: 20.0, count: 401}",
             "rates.t1_us=1.0e+12", "rates.t2_star_us=2.0e+12"])]
        assert run_cli(*args) == 0
        rabi = yaml.safe_load((tmp_path / "summary.yaml").read_text())["results"]["rabi"]
        assert rabi["first_maximum_us"] == 2.7
        assert rabi["half_period_us"] == pytest.approx(2.688, abs=1e-3)
        with open(tmp_path / "rabi.csv", newline="") as handle:
            rows = [[float(x) for x in row] for row in list(csv.reader(handle))[1:]]
        assert rows[54] == [2.7, rabi["maximum_population"]]
        assert rabi["maximum_population"] == pytest.approx(1.0, abs=1e-4)

    def test_rabi_first_maximum_follows_the_shared_local_maximum_rule(self, tmp_path,
                                                                    monkeypatch):
        """The summary's first maximum is the first index of the rule the
        doublet start and ``peak_separation`` use: a flat run that starts at
        the first sample counts, so [0.3, 0.3, 0.1, 0.5, 0.4] peaks at 1."""
        trace = SweepResult(axis1=np.linspace(0.0, 0.4, 5),
                            values=np.array([0.3, 0.3, 0.1, 0.5, 0.4]),
                            observable=Observable.POPULATION1, axis1_name="duration_us")
        monkeypatch.setattr(cli, "rabi_trace", lambda *args: trace)
        durations = "pulse.durations_us={start: 0.0, stop: 0.4, count: 5}"
        assert run_cli("run", "paper.cfg", "--out", str(tmp_path),
                       *_set_args([*_RABI, durations])) == 0
        rabi = yaml.safe_load((tmp_path / "summary.yaml").read_text())["results"]["rabi"]
        assert (rabi["first_maximum_us"], rabi["maximum_population"]) == (0.1, 0.3)

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


_RABI = ["experiment=rabi", "drive.omega_c_mhz=0.0", "drive.delta_p_mhz=0.0"]
_PROBE_SPEC = ["experiment=probe_spec", "drive.omega_c_mhz=0.0",
               "drive.delta_p_mhz={start: -1.0, stop: 1.0, count: 101}"]
_COUPLER_SPEC = ["experiment=coupler_spec", "drive.omega_p_mhz=0.0", "drive.delta_p_mhz=0.0"]
_EIT = ["experiment=eit_scan", "drive.omega_c_mhz=0.0", "drive.delta_p_mhz=0.0"]
_HUGE_GRID = "{start: -1.0e+308, stop: 1.0e+308, count: 201}"

#: Keys the schema once accepted: explicit rates and a fluctuator background.
REMOVED_KEYS = ["rates.gamma_10", "rates.gamma_21", "rates.gamma_20", "rates.phi_1",
                "rates.phi_2", "background", "background.center_mhz", "background.fwhm_mhz",
                "background.amplitude", "background.offset"]


def _set_args(overrides):
    return [a for item in overrides for a in ("--set", item)]


def _axis_columns(path):
    """Each axis column of a written CSV as its distinct texts, in order."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return [list(dict.fromkeys(column)) for column in list(zip(*rows))[:-1]]


def _grid_texts(start, stop, count):
    """The CSV text of each point of a grid, so a comparison is bit for bit."""
    return [repr(x) for x in experiments.Grid1D(start, stop, count).points.tolist()]


class TestAutoGrids:
    """The grids and the pulse that an ``auto`` run uses, at 2.82 MHz."""

    W = 2.82

    def _run(self, config_file, tmp_path, overrides):
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out)]
        assert run_cli(*args, *_set_args(overrides)) == 0
        return out

    def test_probe_spec(self, config_file, tmp_path):
        out = self._run(config_file, tmp_path, _PROBE_SPEC[:2] + ["drive.delta_p_mhz=auto"])
        assert _axis_columns(out / "probe_spec.csv") == [_grid_texts(-1.0, 1.0, 401)]

    def test_coupler_spec_and_pi_pulse(self, config_file, tmp_path):
        out = self._run(config_file, tmp_path, _COUPLER_SPEC + ["drive.delta_c_mhz=auto"])
        limit = 2 * self.W + 1
        assert _axis_columns(out / "coupler_spec.csv") == [_grid_texts(-limit, limit, 201)]
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["results"]["coupler_line"]["pulse_duration_us"] == 1 / (2 * self.W)

    def test_at_map(self, config_file, tmp_path):
        overrides = ["experiment=at_map", "drive.delta_p_mhz=auto", "drive.delta_c_mhz=auto"]
        out = self._run(config_file, tmp_path, overrides)
        limit = 2 * self.W + 2
        grid = _grid_texts(-limit, limit, 201)
        assert _axis_columns(out / "at_map.csv") == [grid, grid]


#: (--set overrides on BASE_CONFIG) whose runs strain the three-level
#: truncation only through an auto grid or, for eit_scan, the drive ratio;
#: each once validated without a warning.
STRAINED_RUNS = [
    pytest.param(["experiment=at_map", "drive.omega_c_mhz=22.0", "drive.delta_p_mhz=auto",
                  "drive.delta_c_mhz=auto"], id="at_map-auto-22"),
    pytest.param(_COUPLER_SPEC + ["drive.omega_c_mhz=25.0", "drive.delta_c_mhz=auto"],
                 id="coupler_spec-auto-25"),
    pytest.param(["drive.omega_c_mhz=[30.0]", "drive.delta_p_mhz=auto"], id="at_slice-auto-30"),
    pytest.param(_EIT + ["drive.omega_p_mhz=1.0"], id="eit_scan-omega_p-1"),
]


class TestWarningsSeeWhatRuns:
    @pytest.mark.parametrize("overrides", STRAINED_RUNS)
    def test_warnings_match_the_written_axes(self, config_file, tmp_path, capsys, overrides):
        """The warnings of validate and of summary.yaml are those of the
        farthest detunings and the coupler amplitudes that the CSVs hold."""
        assert run_cli("validate", str(config_file), *_set_args(overrides)) == 0
        printed = [line.removeprefix("warning: ")
                   for line in capsys.readouterr().out.splitlines() if line.startswith("warning")]
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out), *_set_args(overrides)]
        assert run_cli(*args) == 0
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        levels = summary["parameters"]["device"]
        device = DeviceSpec(levels["omega01_ghz"], levels["omega12_ghz"])
        drive = summary["parameters"]["drive"]
        slices = {f"at_slice_omega_c_{s['omega_c_mhz']:g}.csv": s["omega_c_mhz"]
                  for s in summary["results"].get("at_slice", [])}
        expected = []
        for name in [name for name in summary["files"] if name.endswith(".csv")]:
            with open(out / name, newline="") as handle:
                header, *rows = csv.reader(handle)
            farthest = {axis: max(map(float, column), key=abs)
                        for axis, column in zip(header[:-1], zip(*rows))}
            omega_c = slices.get(name, drive["omega_c_mhz"][0])
            if "omega_c_over_omega_p" in farthest:
                omega_c = farthest["omega_c_over_omega_p"] * drive["omega_p_mhz"]
            delta_p, delta_c = (farthest.get(f"delta_{k}_mhz", 0.0) for k in "pc")
            ran = DriveParams(delta_p, delta_c, drive["omega_p_mhz"], omega_c)
            expected.extend(w for w in validate_three_level(ran, device) if w not in expected)
        assert expected
        assert summary["three_level_warnings"] == expected
        assert printed == expected


def _pin_rates(monkeypatch, **pinned):
    """Make every config load replace the named rates of its derived rate
    set, for rate sets that T1, T2* and ratio_21 cannot express."""
    derive = config_mod.rates_from_coherence_times
    monkeypatch.setattr(config_mod, "rates_from_coherence_times",
                        lambda *args, **kwargs: dataclasses.replace(derive(*args, **kwargs),
                                                                    **pinned))


class TestExitCodeMapping:
    def test_main_maps_every_error_type(self):
        """Each class in ``errors.py`` is named in an ``except`` clause of
        ``cli.main``, so none is defined that the CLI does not map."""
        source = Path(cli.__file__).with_name("errors.py").read_text()
        defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}
        main = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
        caught = {name.id for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
                  for name in ast.walk(handler.type) if isinstance(name, ast.Name)}
        assert len(defined) == 5
        assert defined <= caught

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_infinite_dephasing_rate_exits_2_naming_the_rates_block(self, config_file, tmp_path,
                                                                   capsys, command):
        """T2* = 5e-324 us makes phi_1 = 1/T2* - 1/(2 T1) infinite."""
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        args = [command, str(config_file), *out, "--set", "rates.t2_star_us=5.0e-324"]
        assert run_cli(*args) == 2
        assert capsys.readouterr().err == (
            "config error: block 'rates': rate phi_1 must be finite and >= 0, got inf\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_infinite_anharmonicity_exits_2_naming_the_device_block(self, config_file, tmp_path,
                                                                   capsys, command):
        """omega01 = 1.7e308 GHz is finite, but alpha = (omega01 - omega12) * 1e3 is inf."""
        out = tmp_path / "out"
        where = [] if command == "validate" else ["--out", str(out)]
        args = [command, str(config_file), *where, "--set", "device.omega01_ghz=1.7e+308"]
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.startswith(
            "config error: block 'device': anharmonicity must be positive and finite, got inf MHz"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exits_2_naming_it(self, config_file, tmp_path, capsys, command, key):
        """Every rate derives from T1, T2* and ratio_21, and nothing is added
        to the readout: the explicit rates and the background block are gone."""
        out = tmp_path / "out"
        where = [] if command == "validate" else ["--out", str(out)]
        value = "{fwhm_mhz: 0.3, amplitude: 0.1}" if key == "background" else "0.1"
        assert run_cli(command, str(config_file), *where, "--set", f"{key}={value}") == 2
        unknown = key if key.startswith("rates.") else "background"  # the block is unknown
        assert capsys.readouterr().err == f"config error: unknown key '{unknown}'\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_dephasing_rate_exits_3(self, config_file, tmp_path, capsys):
        """T2* = 1e-300 us gives phi_1 = 1e300, finite; the generators'
        products overflow, and the condition gate rejects the first point."""
        args = ["run", str(config_file), "--out", str(tmp_path / "out"),
                "--set", "rates.t2_star_us=1.0e-300"]
        assert run_cli(*args) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: steady state not unique at delta_p=-6.0,")
        assert err.endswith("1-norm condition inf\n")

    def test_solver_error_exits_3(self, config_file, capsys, monkeypatch):
        def boom(cfg):
            raise SingularLiouvillian("testing propagation")

        monkeypatch.setitem(cli._RUNNERS, "at_slice", boom)
        assert run_cli("run", str(config_file)) == 3
        assert "solver error" in capsys.readouterr().err

    def test_fit_no_convergence_exits_4(self, config_file, capsys, monkeypatch):
        def boom(cfg):
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
        args = ["run", str(config_file), "--out", str(out)]
        for item in ["experiment=coupler_spec", "drive.omega_p_mhz=0.0",
                     f"drive.omega_c_mhz={omega_c}", "drive.delta_p_mhz=0.0",
                     "drive.delta_c_mhz={start: -5.0, stop: 5.0, count: 41}",
                     f"pulse.duration_us={duration}"]:
            args += ["--set", item]
        assert run_cli(*args) == 4
        err = capsys.readouterr().err
        assert any(line.startswith("fit error") for line in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize("phi_1", ["3.0", "2.0"])
    def test_doublet_that_runs_off_exits_4(self, tmp_path, capsys, monkeypatch, phi_1):
        """Strong |1> dephasing washes the weakest doublet out to one broad
        bump.  Its two peaks widen without bound over a canceling offset, to
        an amplitude above the gate or a negative one; roundoff in the slice
        picks which.  So this checks what both refusals share: exit 4 and a
        fit error naming the 0.354 MHz slice with no peak to fit, not a
        traceback.  Each refusal's wording is pinned by a ``fit_peaks`` test.
        The config sets phi_2 = phi_1, so phi_1 alone is pinned."""
        _pin_rates(monkeypatch, phi_1=float(phi_1))
        assert run_cli("run", "paper.cfg", "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        first = err.splitlines()[0]
        assert first.startswith("fit error: doublet at omega_c=0.354 MHz: fitted amplitude "), err
        assert first.endswith("; no peak to fit"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("t2_star", ["0.08", "0.1", "0.15", "0.25", "0.3"])
    def test_doublet_washed_out_by_a_short_t2_star_fits(self, tmp_path, t2_star):
        """Short T2* merges the weak doublets until their dip stays above
        half height, or washes them out to one bump.  Each fit starts from
        its data, a merged bump split about its half-max midpoint, and every
        slice converges."""
        args = ["run", "paper.cfg", "--out", str(tmp_path), "--set", f"rates.t2_star_us={t2_star}"]
        assert run_cli(*args) == 0
        slices = yaml.safe_load((tmp_path / "summary.yaml").read_text())["results"]["at_slice"]
        assert len(slices) == 6 and all(info["converged"] for info in slices)

    def test_overflowing_pulse_map_exits_3_without_warnings(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out)]
        for item in ["experiment=coupler_spec", "drive.omega_p_mhz=0.0",
                     "drive.omega_c_mhz=1.0e+306", "drive.delta_p_mhz=0.0",
                     "drive.delta_c_mhz={start: -5.0, stop: 5.0, count: 41}",
                     "pulse.duration_us=0.177"]:
            args += ["--set", item]
        assert run_cli(*args) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error") and "not finite" in err
        assert "RuntimeWarning" not in err

    def test_rabi_to_1e300_us_ends_at_the_driven_steady_state(self, config_file, tmp_path):
        overrides = _RABI + ["pulse.durations_us={start: 0.0, stop: 1.0e+300, count: 11}"]
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out)]
        assert run_cli(*args, *(a for item in overrides for a in ("--set", item))) == 0
        cfg = load(config_file, overrides)
        target = steady_states(0.0, 0.0, cfg.omega_p, 0.0, cfg.rates)[0, 1, 1].real
        with open(out / "rabi.csv", newline="") as f:
            last = float(list(csv.reader(f))[-1][-1])
        assert last == pytest.approx(target, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("source", ["--out", "output.directory"])
    def test_output_path_that_is_a_file_exits_2_before_solving(
        self, config_file, tmp_path, capsys, monkeypatch, source
    ):
        def no_solve(cfg):
            raise AssertionError("solved before checking the output directory")

        monkeypatch.setitem(cli._RUNNERS, "at_slice", no_solve)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        where = ["--out", str(taken)] if source == "--out" else ["--set", f"{source}={taken}"]
        assert run_cli("run", str(config_file), *where) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(taken) in err
        assert taken.read_text() == "a file\n"

    def test_output_path_under_a_file_exits_2_before_solving(
        self, config_file, tmp_path, capsys, monkeypatch
    ):
        def no_solve(cfg):
            raise AssertionError("solved before creating the output directory")

        monkeypatch.setitem(cli._RUNNERS, "at_slice", no_solve)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "out"
        assert run_cli("run", str(config_file), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}")

    def test_uncreatable_output_directory_exits_2(self, config_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "out"
        assert run_cli("run", str(config_file), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(out) in err
        assert "Traceback" not in err

    def test_output_file_blocked_by_a_directory_exits_2(self, config_file, tmp_path, capsys):
        blocked = tmp_path / "probe_spec.csv"
        blocked.mkdir()
        args = ["run", str(config_file), "--out", str(tmp_path), *_set_args(_PROBE_SPEC[:2])]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output file {blocked}")
        assert "Traceback" not in err
        assert not (tmp_path / "probe_spec.csv.tmp").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma_10", ["1.0e-300", "5.0e-324"])
    def test_tiny_gamma_10_fits_a_slice_without_warnings(self, config_file, tmp_path,
                                                        monkeypatch, gamma_10):
        """A slice with gamma_10 near zero either fits or exits 4 with a fit
        error, and raises no numpy warning on the way.  No finite T1 gives
        gamma_10 = 5e-324, so gamma_10 is pinned."""
        _pin_rates(monkeypatch, gamma_10=float(gamma_10))
        overrides = ["drive.delta_p_mhz={start: -4.0, stop: 4.0, count: 41}"]
        args = ["run", str(config_file), "--out", str(tmp_path / "out"), *_set_args(overrides)]
        assert run_cli(*args) in (0, 4)

    @pytest.mark.filterwarnings("error")
    def test_tiny_gamma_10_from_t1_fits_a_slice_without_warnings(self, config_file, tmp_path):
        """T1 = 1e300 us gives gamma_10 = 1e-300 (gamma_21 = 1.0 through the
        ratio) from the config alone; the slice exits 0 or 4 with no warning."""
        overrides = ["drive.delta_p_mhz={start: -4.0, stop: 4.0, count: 41}",
                     "rates.t1_us=1.0e+300", "rates.ratio_21=1.0e+300"]
        args = ["run", str(config_file), "--out", str(tmp_path / "out"), *_set_args(overrides)]
        assert run_cli(*args) in (0, 4)

    def test_converged_fit_raises_fit_errors_naming_the_fit(self, monkeypatch):
        cli._bind_numerics()  # as run does, before any runner uses numpy or fit_peaks
        flat = SweepResult(np.arange(41.0), np.zeros(41), Observable.PA_SUM, "delta_p_mhz")
        with pytest.raises(DegenerateData, match="^test: y range below"):
            cli._converged_fit(flat, 1, "test")

        class Unconverged:
            converged = False

        monkeypatch.setattr(cli, "fit_peaks", lambda *args, **kwargs: Unconverged())
        with pytest.raises(NoConvergence, match="^test fit did not converge"):
            cli._converged_fit(flat, 1, "test")


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
    pytest.param(["output.formats=[csv, summary]"], "output.formats", id="formats-removed"),
    pytest.param(["drive.omega_p_mhz=[1.0"], "drive.omega_p_mhz", id="override-not-yaml"),
    pytest.param(["pulse.durations_us=3"], "pulse.durations_us", id="grid-not-a-mapping"),
    pytest.param(["drive.omega_c_mhz=[]"], "drive.omega_c_mhz", id="no-couplers"),
    pytest.param(["experiment=foo"], "experiment", id="unknown-experiment"),
    pytest.param(["drive=3"], "drive", id="block-not-a-mapping"),
    # Fitted sweeps shorter than the fit's minimum (5 points per parameter).
    pytest.param(_PROBE_SPEC[:2] + ["drive.delta_p_mhz={start: -1.0, stop: 1.0, count: 5}"],
                 "drive.delta_p_mhz.count", id="short-probe_spec-grid"),
    pytest.param(_COUPLER_SPEC + ["drive.delta_c_mhz={start: -5.0, stop: 5.0, count: 5}"],
                 "drive.delta_c_mhz.count", id="short-coupler_spec-grid"),
    pytest.param(["drive.delta_p_mhz={start: -6.0, stop: 6.0, count: 20}"],
                 "drive.delta_p_mhz.count", id="short-at_slice-grid"),
    # Grids whose span overflows to inf: written out, or auto at a huge coupler.
    pytest.param(_PROBE_SPEC[:2] + [f"drive.delta_p_mhz={_HUGE_GRID}"],
                 "drive.delta_p_mhz", id="overflowing-probe_spec-grid"),
    pytest.param(_COUPLER_SPEC + [f"drive.delta_c_mhz={_HUGE_GRID}"],
                 "drive.delta_c_mhz", id="overflowing-coupler_spec-grid"),
    pytest.param(_COUPLER_SPEC + ["drive.omega_c_mhz=1.0e+308", "drive.delta_c_mhz=auto"],
                 "drive.omega_c_mhz", id="overflowing-coupler_spec-auto"),
    pytest.param(_EIT + ["drive.omega_p_mhz=1.0e+300", "eit.n_max=0",
                  "eit.ratio_grid={start: 0.0, stop: 1.0e+10, count: 3}"],
                 "eit.ratio_grid.stop", id="overflowing-eit_scan-coupler"),
    pytest.param(["experiment=at_map", "drive.omega_c_mhz=1.0e+308", "drive.delta_p_mhz=auto",
                  "drive.delta_c_mhz=auto"], "drive.omega_c_mhz", id="overflowing-at_map-auto"),
    pytest.param(["drive.omega_c_mhz=[1.0e+308]", "drive.delta_p_mhz=auto"],
                 "drive.omega_c_mhz", id="overflowing-at_slice-auto"),
    pytest.param(_COUPLER_SPEC + ["drive.omega_c_mhz=5.0e-324", "drive.delta_c_mhz=auto"],
                 "drive.omega_c_mhz", id="overflowing-pi-pulse"),
]

#: (--set overrides on BASE_CONFIG) giving each fitted sweep exactly the
#: fit's minimum number of points.
MINIMAL_FIT_GRIDS = [
    pytest.param(_PROBE_SPEC[:2] + ["drive.delta_p_mhz={start: -1.0, stop: 1.0, count: 20}"],
                 id="probe_spec-20"),
    pytest.param(_COUPLER_SPEC + ["drive.delta_c_mhz={start: -5.0, stop: 5.0, count: 20}"],
                 id="coupler_spec-20"),
    pytest.param(["drive.delta_p_mhz={start: -6.0, stop: 6.0, count: 35}"], id="at_slice-35"),
]


class TestInvalidConfigs:
    @pytest.mark.parametrize("overrides, key", INVALID_CONFIGS)
    def test_exits_2_naming_the_key(self, config_file, tmp_path, capsys, overrides, key):
        out = tmp_path / "out"
        args = ["run", str(config_file), "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", MINIMAL_FIT_GRIDS)
    def test_fit_minimum_still_validates(self, config_file, capsys, overrides):
        args = ["validate", str(config_file)]
        assert run_cli(*args, *(a for item in overrides for a in ("--set", item))) == 0
        assert "config ok" in capsys.readouterr().out


#: BASE_CONFIG with t1_us given twice; PyYAML alone would keep 30.0.
_REPEATED_T1 = BASE_CONFIG.replace("  t1_us: 39.0\n", "  t1_us: 39.0\n  t1_us: 30.0\n").encode()


class TestConfigLoading:
    @pytest.mark.parametrize(
        "data, command, match",
        [pytest.param(b"schema: 1\nexperiment: \xff\n", "validate", "is not valid YAML",
                      id="not-utf8-validate"),
         pytest.param(b"schema: 1\nexperiment: \xff\n", "run", "is not valid YAML",
                      id="not-utf8-run"),
         pytest.param(b"drive: [1.0\n", "validate", "is not valid YAML", id="invalid-yaml"),
         pytest.param(b"- schema\n- 1\n", "validate", "must contain a mapping",
                      id="list-at-top-level"),
         pytest.param(_REPEATED_T1, "validate", "is not valid YAML: found duplicate key 't1_us'",
                      id="repeated-key-validate"),
         pytest.param(_REPEATED_T1, "run", "is not valid YAML: found duplicate key 't1_us'",
                      id="repeated-key-run")],
    )
    def test_unparsable_file_exits_2_naming_it(self, tmp_path, capsys, data, command, match):
        path, out = tmp_path / "bad.cfg", tmp_path / "out"
        path.write_bytes(data)
        args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert f"config file {path} {match}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_directory_cannot_be_read(self, tmp_path):
        match = f"^cannot read config file {re.escape(str(tmp_path))}: "
        with pytest.raises(ConfigError, match=match):
            config_mod.load_raw(tmp_path)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_directory_as_config_exits_2_naming_it(self, tmp_path, capsys, command):
        """A directory exists, so it is not reported as missing: reading it fails."""
        out = tmp_path / "out"
        args = [command, str(tmp_path)] + (["--out", str(out)] if command == "run" else [])
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {tmp_path}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_override_keeps_the_last_and_merge_keys_merge(self, tmp_path):
        """Only a key written twice in one mapping is refused: a repeated
        ``--set`` still wins with its last value, and a YAML merge key (<<)
        may be overridden by an explicit key."""
        path = tmp_path / "merge.cfg"
        text = BASE_CONFIG.replace("delta_p_mhz: {", "delta_p_mhz: &grid {")
        path.write_text(text + "eit: {ratio_grid: {<<: *grid, start: 0.5}}\n")
        cfg = load(path, ["rates.t1_us=30.0", "rates.t1_us=39.0"])
        assert cfg.rates.gamma_10 == 1.0 / 39.0
        assert cfg.eit_ratio_grid == experiments.Grid1D(0.5, 6.0, 161)

    @pytest.mark.parametrize(
        "text, overrides, key, written, fixed",
        [pytest.param(BASE_CONFIG.replace("t1_us: 39.0", "t1_us: 4e1"), [], "rates.t1_us",
                      "'4e1'", "4.0e+1", id="file-value"),
         pytest.param(BASE_CONFIG, ["drive.delta_c_mhz=-1E3"], "drive.delta_c_mhz",
                      "or 'auto'", "-1.0E+3", id="set-value")],
    )
    def test_exponent_read_as_text_says_why_and_how_to_write_it(
            self, tmp_path, capsys, text, overrides, key, written, fixed):
        """YAML 1.1 reads 4e1 (no decimal point) and 4.0e1 (no exponent sign)
        as text.  The rejection stays, and now gives the reason and a fix
        that YAML reads as the intended number."""
        path = tmp_path / "exponent.cfg"
        path.write_text(text)
        assert run_cli("validate", str(path), *_set_args(overrides)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key '{key}' must be a number")
        reason = ("YAML reads a number in exponent form as text unless it has a decimal point"
                  f" and an exponent sign: write {fixed})\n")
        assert err.endswith(f"{written} ({reason}")
        assert yaml.safe_load(fixed) == float(fixed)

    def test_resolve_needs_a_mapping(self):
        with pytest.raises(ConfigError, match="^config must be a mapping$"):
            config_mod.resolve([])

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

    def test_held_detuning_given_as_auto_resolves_to_zero(self, config_file):
        cfg = load(config_file, ["drive.delta_c_mhz=auto"])
        assert type(cfg.delta_c) is float and cfg.delta_c == 0.0
        cfg = load(config_file, ["experiment=fidelity_scan", "drive.delta_p_mhz=auto",
                                 "drive.delta_c_mhz=auto"])
        assert (cfg.delta_p, cfg.delta_c) == (0.0, 0.0)

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


class TestPaperSet:
    """``tools/paper_set.py``: the seven canonical runs, run once per class,
    compared with the committed reference under ``tests/reference`` and with
    a run whose steady-state sweeps use one worker thread."""

    @pytest.fixture(scope="class")
    def paper_set(self):
        return load_module(ROOT / "tools" / "paper_set.py")

    @pytest.fixture(scope="class")
    def runs(self, paper_set):
        return paper_set.RUNS

    @pytest.fixture(scope="class")
    def default_run(self, paper_set, tmp_path_factory):
        root = tmp_path_factory.mktemp("paper_set") / "default"
        assert paper_set.main([str(root)]) == 0
        return root

    def test_covers_every_experiment(self, runs):
        assert sorted(runs) == sorted(EXPERIMENTS)

    def test_each_run_validates_as_its_experiment_without_warnings(self, runs):
        for name, overrides in runs.items():
            cfg = load(bundled_config_path("paper.cfg"), overrides)
            assert (cfg.experiment, cfg.warnings) == (name, ())

    def test_validate_prints_what_each_run_records(self, runs, default_run, capsys):
        """validate's YAML above ``config ok`` holds the schema, experiment
        and parameters of the run's summary.yaml, plus the output directory;
        ``auto`` is left only for at_slice's per-slice probe grid."""
        for name, overrides in runs.items():
            assert run_cli("validate", "paper.cfg", *_set_args(overrides)) == 0
            text = capsys.readouterr().out
            printed = yaml.safe_load(text.removesuffix("config ok\n"))
            summary = yaml.safe_load((default_run / name / "summary.yaml").read_text())
            assert printed.pop("output") == {"directory": "results"}
            assert printed == {key: summary[key] for key in ("schema", "experiment", "parameters")}
            assert ("auto" in text) == (name == "at_slice")

    def test_one_worker_writes_the_same_files(self, paper_set, default_run, tmp_path,
                                              monkeypatch, capsys):
        """The seven runs write byte-identical trees whether the steady-state
        sweeps use a worker thread per usable CPU or a pool of one."""
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
        assert paper_set.main([str(tmp_path / "serial")]) == 0
        default, serial = (
            {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
            for root in (default_run, tmp_path / "serial")
        )
        assert {p.parts[0] for p in default} == set(EXPERIMENTS)
        assert default == serial

    def test_runs_match_the_reference(self, paper_set, default_run):
        """File lists, headers, row counts and axis values exactly; sweep
        values and summary numbers to 1e-12 relative.  After an intended
        change, ``tools/paper_set.py --update`` rewrites the reference."""
        largest, problems = paper_set.compare(default_run)
        report = "\n".join(f"{name}: largest difference {d:.3g}" for name, d in largest.items())
        assert problems == [], report

    def test_slice_summaries_ignore_one_ulp_in_the_data(self, paper_set, monkeypatch):
        """Twenty draws, each moving random values of every ``paper.cfg``
        slice by one ulp, move no ``at_slice`` summary number by more than
        the reference's 1e-12 relative: the fit ends where its Gauss-Newton
        steps reach roundoff, not where roundoff in the cost lets it stop."""
        cfg = load(bundled_config_path("paper.cfg"), [])
        sweeps = cli.at_slice(cli._base_model(cfg, cfg.omega_c_values[0]), cfg.delta_p,
                              cfg.omega_c_values)
        _, want = cli._run_at_slice(cfg)
        rng = np.random.default_rng(27)
        for _ in range(20):
            moved = []
            for sweep in sweeps:
                v = sweep.values
                ulp = np.nextafter(v, np.where(rng.random(v.size) < 0.5, -np.inf, np.inf))
                moved.append(dataclasses.replace(sweep, values=np.where(
                    rng.random(v.size) < 0.5, ulp, v)))
            monkeypatch.setattr(cli, "at_slice", lambda *args: moved)
            _, got = cli._run_at_slice(cfg)
            problems = []
            paper_set._compare_tree("at_slice", got, want, problems)
            assert problems == []

    def test_reference_check_sees_one_value_moved_by_1e_9(self, paper_set, default_run,
                                                           tmp_path):
        moved = tmp_path / "moved"
        shutil.copytree(default_run, moved)
        name = "at_map/at_map.csv"
        lines = (moved / name).read_text().splitlines(keepends=True)
        *axes, value = lines[12345].rstrip("\n").split(",")
        lines[12345] = ",".join(axes + [repr(float(value) * (1 + 1e-9))]) + "\n"
        (moved / name).write_text("".join(lines))
        largest, problems = paper_set.compare(moved)
        assert len(problems) == 1 and problems[0].startswith(f"{name} row 12345: ")
        assert largest[name] == pytest.approx(1e-9, rel=1e-3)
