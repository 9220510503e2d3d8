"""Command-line workbench: run configured experiments, write results.

Commands::

    atsplit run <config> [--set key=value ...] [--jobs N] [--out DIR]
    atsplit validate <config>

Outputs are one CSV per sweep plus a YAML summary with stable key order.
Every float is serialized with repr, so a written value re-parses to the
exact in-memory double and two runs of the same config are byte
identical.  Wall time goes to stdout only, never into the files.

Exit codes: 0 success, 2 config/schema error, 3 solver error, 4 fit did
not converge where the experiment requires it, or there was nothing to fit.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from . import config as config_mod
from .analysis import fit_peaks, peak_separation, separation_metrics
from .config import ExperimentConfig
from .errors import (
    ConfigError,
    DegenerateData,
    NoConvergence,
    NonPhysicalCoherence,
    NonPhysicalResult,
    SingularLiouvillian,
)
from .experiments import (
    Grid1D,
    SweepResult,
    at_map,
    at_slice,
    coupler_spectroscopy,
    default_map_grid,
    eit_regime_scan,
    fidelity_vs_coupler,
    probe_spectroscopy,
    rabi_trace,
)
from .model import TWO_PI, DriveParams, ThreeLevelModel

OUTPUT_DIR_ENV = "ATSPLIT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FIT = 4


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _sweep_csv(sweep: SweepResult) -> str:
    """CSV text of a sweep: a header row naming the columns, then one row
    per grid point with axis1 varying slowest (axis1, [axis2,] value).

    Every float is written with repr, the shortest decimal that round-trips
    to the exact double; names and floats never need quoting.  Each axis
    value is formatted once, not once per row it appears in.
    """
    names = [sweep.axis1_name, sweep.observable.value]
    if sweep.axis2 is None:
        values, tails = sweep.values[:, np.newaxis], [","]
    else:
        names.insert(1, sweep.axis2_name)
        values, tails = sweep.values, [f",{y!r}," for y in sweep.axis2.tolist()]
    buffer = io.StringIO()
    buffer.write(",".join(names) + "\n")
    for x, row in zip(sweep.axis1.tolist(), values.tolist()):
        head = repr(x)
        buffer.write("".join([head + tail + repr(v) + "\n" for tail, v in zip(tails, row)]))
    return buffer.getvalue()


#: Human-readable axis labels for the plot manifest.
_AXIS_LABELS = {
    "delta_p_mhz": "probe detuning (MHz)",
    "delta_c_mhz": "coupler detuning (MHz)",
    "duration_us": "pulse duration (us)",
    "omega_c_mhz": "coupler amplitude (MHz)",
    "omega_c_over_omega_p": "drive ratio omega_c / omega_p",
    "pa_sum": "rho11 + rho22",
    "pb_second": "rho22",
    "fidelity": "dark-state fidelity",
    "population1": "rho11",
}


def _plot_manifest(named_sweeps) -> str:
    """JSON manifest of axes and labels for external plotting tools."""
    entries = []
    for name, sweep in named_sweeps:
        entry = {
            "file": f"{name}.csv",
            "x": sweep.axis1_name,
            "x_label": _AXIS_LABELS.get(sweep.axis1_name, sweep.axis1_name),
            "value": sweep.observable.value,
            "value_label": _AXIS_LABELS.get(sweep.observable.value, sweep.observable.value),
        }
        if sweep.axis2 is not None:
            entry["y"] = sweep.axis2_name
            entry["y_label"] = _AXIS_LABELS.get(sweep.axis2_name, sweep.axis2_name)
        entries.append(entry)
    return json.dumps({"plots": entries}, indent=2, sort_keys=True) + "\n"


def _broadened_fwhm_mhz(cfg: ExperimentConfig) -> float:
    """Power-broadened probe linewidth, used as the fit width guess."""
    g1 = cfg.rates.gamma_10
    g2 = g1 / 2.0 + cfg.rates.phi_1
    w = TWO_PI * cfg.omega_p
    hwhm_angular = math.sqrt(g2 * g2 + w * w * g2 / g1) if g1 > 0 else g2
    return max(2.0 * hwhm_angular / TWO_PI, 1e-3)


def _singlet_summary(fit) -> dict:
    return {
        "center_mhz": float(fit.peak.center),
        "fwhm_mhz": float(fit.peak.fwhm),
        "amplitude": float(fit.peak.amplitude),
        "offset": float(fit.peak.offset),
        "residual_rms": float(fit.residual_rms),
        "converged": bool(fit.converged),
    }


def _require_converged(fit, what: str):
    if not fit.converged:
        raise NoConvergence(f"{what} fit did not converge")
    return fit


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------

def _base_model(cfg: ExperimentConfig, omega_c: float):
    return ThreeLevelModel(DriveParams(omega_p=cfg.omega_p, omega_c=omega_c), cfg.rates)


def _run_probe_spec(cfg: ExperimentConfig, jobs: int):
    grid = cfg.delta_p if isinstance(cfg.delta_p, Grid1D) else Grid1D(-1.0, 1.0, 401)
    sweep = probe_spectroscopy(_base_model(cfg, 0.0), grid, cfg.background)
    fit = _require_converged(
        fit_peaks(np.column_stack([sweep.axis1, sweep.values]), 1), "probe line"
    )
    info = _singlet_summary(fit)
    info["f01_ghz"] = cfg.device.omega01 + fit.peak.center * 1e-3
    return [("probe_spec", sweep)], {"probe_line": info}


def _run_coupler_spec(cfg: ExperimentConfig, jobs: int):
    omega_c = cfg.omega_c_values[0]
    if isinstance(cfg.delta_c, Grid1D):
        grid = cfg.delta_c
    else:
        limit = 2.0 * omega_c + 1.0
        grid = Grid1D(-limit, limit, 201)
    duration = cfg.pulse_duration
    if duration is None:
        duration = 1.0 / (2.0 * omega_c)  # ideal pi pulse
    sweep = coupler_spectroscopy(_base_model(cfg, omega_c), grid, duration)
    fit = _require_converged(
        fit_peaks(np.column_stack([sweep.axis1, sweep.values]), 1), "coupler line"
    )
    info = _singlet_summary(fit)
    info["f12_ghz"] = cfg.device.omega12 + fit.peak.center * 1e-3
    info["pulse_duration_us"] = float(duration)
    return [("coupler_spec", sweep)], {"coupler_line": info}


def _run_rabi(cfg: ExperimentConfig, jobs: int):
    sweep = rabi_trace(_base_model(cfg, 0.0), cfg.durations)
    k = int(np.argmax(sweep.values))
    info = {
        "first_maximum_us": float(sweep.axis1[k]),
        "maximum_population": float(sweep.values[k]),
        "half_period_us": 1.0 / (2.0 * cfg.omega_p),
    }
    return [("rabi", sweep)], {"rabi": info}


def _run_at_map(cfg: ExperimentConfig, jobs: int):
    omega_c = cfg.omega_c_values[0]
    dp = cfg.delta_p if isinstance(cfg.delta_p, Grid1D) else default_map_grid(omega_c)
    dc = cfg.delta_c if isinstance(cfg.delta_c, Grid1D) else default_map_grid(omega_c)
    sweep = at_map(_base_model(cfg, omega_c), dp, dc, jobs=jobs)
    i, j = np.unravel_index(int(np.argmax(sweep.values)), sweep.values.shape)
    info = {
        "omega_c_mhz": float(omega_c),
        "grid": f"{dp.count}x{dc.count}",
        "max_value": float(sweep.values[i, j]),
        "max_at_delta_p_mhz": float(sweep.axis1[i]),
        "max_at_delta_c_mhz": float(sweep.axis2[j]),
    }
    return [("at_map", sweep)], {"at_map": info}


def _run_at_slice(cfg: ExperimentConfig, jobs: int):
    grid = cfg.delta_p if isinstance(cfg.delta_p, Grid1D) else None
    base = _base_model(cfg, cfg.omega_c_values[0])
    sweeps = at_slice(base, grid, cfg.omega_c_values, cfg.background)
    width_guess = _broadened_fwhm_mhz(cfg)
    outputs, slices = [], []
    for omega_c, sweep in zip(cfg.omega_c_values, sweeps):
        amp_guess = float(sweep.values.max() - sweep.values.min())
        offset_guess = float(sweep.values.min())
        init = [
            -omega_c / 2.0, width_guess, amp_guess,
            +omega_c / 2.0, width_guess, amp_guess,
            offset_guess,
        ]
        fit = _require_converged(
            fit_peaks(np.column_stack([sweep.axis1, sweep.values]), 2, init=init),
            f"doublet at omega_c={omega_c:g} MHz",
        )
        metrics = separation_metrics(fit)
        separation = peak_separation(sweep.axis1, sweep.values)
        slices.append(
            {
                "omega_c_mhz": float(omega_c),
                "separation_mhz": separation,
                "fit_separation_mhz": float(metrics.separation),
                "expected_separation_mhz": math.hypot(cfg.omega_p, omega_c),
                "mean_fwhm_mhz": float(metrics.mean_fwhm),
                "separation_over_fwhm": separation / metrics.mean_fwhm,
                "midpoint_shift_mhz": float(metrics.midpoint_shift),
                "residual_rms": float(fit.residual_rms),
                "converged": bool(fit.converged),
            }
        )
        outputs.append((f"at_slice_omega_c_{omega_c:g}", sweep))
    return outputs, {"at_slice": slices}


def _run_fidelity_scan(cfg: ExperimentConfig, jobs: int):
    sweep = fidelity_vs_coupler(_base_model(cfg, 0.0), list(cfg.omega_c_values))
    points = [
        {"omega_c_mhz": float(w), "fidelity": float(f)}
        for w, f in zip(sweep.axis1, sweep.values)
    ]
    return [("fidelity_scan", sweep)], {"fidelity_scan": points}


def _run_eit_scan(cfg: ExperimentConfig, jobs: int):
    sweeps = eit_regime_scan(_base_model(cfg, 0.0), cfg.eit_n_max, cfg.eit_ratio_grid)
    outputs, curves = [], []
    for n, sweep in enumerate(sweeps):
        outputs.append((f"eit_scan_n{n}", sweep))
        curves.append(
            {
                "n": n,
                "gamma_21_scale": 0.5**n,
                "fidelity_at_min_ratio": float(sweep.values[0]),
                "fidelity_at_max_ratio": float(sweep.values[-1]),
            }
        )
    return outputs, {"eit_scan": curves}


_RUNNERS = {
    "probe_spec": _run_probe_spec,
    "coupler_spec": _run_coupler_spec,
    "rabi": _run_rabi,
    "at_map": _run_at_map,
    "at_slice": _run_at_slice,
    "fidelity_scan": _run_fidelity_scan,
    "eit_scan": _run_eit_scan,
}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1):
    """Execute the configured experiment; returns (named sweeps, summary info)."""
    return _RUNNERS[cfg.experiment](cfg, jobs)


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

def _summary_document(cfg: ExperimentConfig, results: dict, files: list[str]) -> dict:
    return {
        "schema": config_mod.SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "parameters": {
            "device": {
                "omega01_ghz": cfg.device.omega01,
                "omega12_ghz": cfg.device.omega12,
                "alpha_mhz": cfg.device.alpha,
            },
            "rates_per_us": asdict(cfg.rates),
            "drive": {
                "omega_p_mhz": cfg.omega_p,
                "omega_c_mhz": list(cfg.omega_c_values),
            },
        },
        "three_level_warnings": list(cfg.warnings),
        "results": results,
        "files": files,
    }


def _resolve_out_dir(cfg: ExperimentConfig, cli_out: str | None) -> Path:
    if cli_out:
        return Path(cli_out)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def _cmd_run(args) -> int:
    path = config_mod.resolve_config_path(args.config)
    cfg = config_mod.load(path, args.set or [])
    for warning in cfg.warnings:
        print(f"warning: {warning}")

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    started = time.perf_counter()
    sweeps, results = run_experiment(cfg, jobs=max(1, jobs))

    out_dir = _resolve_out_dir(cfg, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    if "csv" in cfg.formats:
        for name, sweep in sweeps:
            filename = f"{name}.csv"
            _atomic_write(out_dir / filename, _sweep_csv(sweep))
            files.append(filename)
        _atomic_write(out_dir / "plots.json", _plot_manifest(sweeps))
        files.append("plots.json")
    if "summary" in cfg.formats:
        document = _summary_document(cfg, results, files)
        _atomic_write(
            out_dir / "summary.yaml",
            yaml.safe_dump(document, sort_keys=True, default_flow_style=False),
        )
        files.append("summary.yaml")

    elapsed = time.perf_counter() - started
    print(f"{cfg.experiment}: wrote {len(files)} file(s) to {out_dir}")
    print(f"wall time: {elapsed:.3f} s")
    return EXIT_OK


def _cmd_validate(args) -> int:
    path = config_mod.resolve_config_path(args.config)
    cfg = config_mod.load(path, args.set or [])
    for line in config_mod.resolved_lines(cfg):
        print(line)
    for warning in cfg.warnings:
        print(f"warning: {warning}")
    print("config ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atsplit",
        description="Three-level transmon simulator: Autler-Townes spectra, "
        "doublet fits, and dark-state fidelity from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the configured experiment")
    run_parser.add_argument("config", help="config file path or bundled name (paper.cfg)")
    run_parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config entry by dotted path (repeatable)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=None,
        help="max worker processes for grid sweeps (default: all cores)",
    )
    run_parser.add_argument(
        "--out", default=None,
        help=f"output directory (overrides ${OUTPUT_DIR_ENV} and the config)",
    )
    run_parser.set_defaults(func=_cmd_run)

    val_parser = sub.add_parser("validate", help="validate a config, solve nothing")
    val_parser.add_argument("config", help="config file path or bundled name")
    val_parser.add_argument("--set", action="append", metavar="KEY=VALUE")
    val_parser.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NonPhysicalCoherence) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularLiouvillian, NonPhysicalResult) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (NoConvergence, DegenerateData) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
