"""Command-line workbench: run configured experiments, write results.

Commands::

    atsplit run <config> [--set key=value ...] [--out DIR]
    atsplit validate <config> [--set key=value ...]

Outputs go to ``--out``, else ``output.directory``: one CSV per sweep plus
a YAML summary with stable key order, dumped by libyaml where PyYAML has it.
Every float is serialized with repr, once per value or per mirrored pair,
so a written value re-parses to the exact in-memory double and two runs of
the same config are byte identical.  Wall time goes to stdout, never into files.

Exit codes: 0 success, 2 config, schema or output-path error, 3 solver
error, 4 a required fit did not converge or there was nothing to fit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, Iterator

import yaml

from . import config as config_mod
from .config import ExperimentConfig
from .errors import (
    ConfigError,
    DegenerateData,
    NoConvergence,
    NonPhysicalResult,
    SingularLiouvillian,
)
from .model import DriveParams, ThreeLevelModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FIT = 4


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks to a ``.tmp`` file beside ``path``, then rename it over
    ``path``; an OSError removes the ``.tmp`` file and raises ConfigError naming ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


#: Rows of a 1-D sweep per chunk of its CSV text: few enough writes, and
#: text of a bounded size.
_CSV_BLOCK = 4096


def _sweep_csv(sweep: SweepResult) -> Iterator[str]:
    """CSV text of a sweep in chunks: a header row naming the columns, then
    the rows (axis1, [axis2,] value), ``_CSV_BLOCK`` rows per chunk for a
    1-D sweep and one axis1 value per chunk for a map, so a sweep is never
    held whole as text.

    Every float is written with repr, the shortest decimal that round-trips
    to the exact double; names and floats never need quoting.  Each axis
    value is formatted once, not once per row it appears in, and so is each
    value of a sweep whose bits read the same reversed in C order: the mirror
    of a chunk before the middle one reuses its strings, parked until the end.
    """
    flat, heads = sweep.values.reshape(-1), sweep.axis1.tolist()
    if sweep.axis2 is None:
        yield f"{sweep.axis1_name},{sweep.observable.value}\n"
        size = _CSV_BLOCK

        def lines(start: int, strs: list[str]) -> str:  # the rows of values start, start + 1, ...
            return "".join([f"{x!r},{v}\n" for x, v in zip(heads[start:start + len(strs)], strs)])
    else:
        yield f"{sweep.axis1_name},{sweep.axis2_name},{sweep.observable.value}\n"
        tails = [f",{y!r}," for y in sweep.axis2.tolist()]
        size = len(tails) or 1
        parts = [""] * (3 * len(tails))  # "\n" + head, tail and value per value: one join a row
        parts[1::3] = tails

        def lines(start: int, strs: list[str]) -> str:  # the map row that starts at value start
            head = repr(heads[start // size])
            parts[::3], parts[2::3] = ["\n" + head] * size, strs
            parts[0] = head
            return "".join(parts) + "\n"
    n, bits = flat.size, flat.view(f"u{flat.itemsize}")
    even = (bits[:n // 2] == bits[::-1][:n // 2]).all()
    mid = n // 2 // size * size if even else n  # the chunks formatted one by one end at mid
    with tempfile.SpooledTemporaryFile(1) as side:  # a file once a chunk is parked in it
        ends = [0]
        for start in range(0, mid, size):
            strs = list(map(repr, flat[start:start + size].tolist()))
            yield lines(start, strs)
            if even:  # park the mirror chunk, values n - start - size to n - start
                ends.append(side.write(lines(n - start - size, strs[::-1]).encode()) + ends[-1])
        if mid < n - mid:  # an even sweep's middle chunk, values mid to n - mid, is its own mirror
            strs = list(map(repr, flat[mid:n - n // 2].tolist()))
            yield lines(mid, strs + strs[:n // 2 - mid][::-1])
        for start, stop in zip(ends[-2::-1], ends[:0:-1]):
            side.seek(start)
            yield side.read(stop - start).decode()


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


def _converged_fit(cfg: ExperimentConfig, sweep: SweepResult, what: str):
    """``fit_peaks`` on a sweep with the peaks ``cfg``'s experiment fits; errors name ``what``."""
    try:
        fit = fit_peaks(np.column_stack([sweep.axis1, sweep.values]),
                        config_mod.READS[cfg.experiment].fit_peaks)
    except DegenerateData as exc:
        raise DegenerateData(f"{what}: {exc}") from None
    if not fit.converged:
        raise NoConvergence(f"{what} fit did not converge")
    return fit


def _line_summary(fit, line: str, f0_ghz: float) -> dict:
    """Summary of a converged one-peak fit to a line scan; ``line`` is f0_ghz + center, GHz."""
    (peak,) = fit.peaks
    return {
        "center_mhz": float(peak.center),
        "fwhm_mhz": float(peak.fwhm),
        "amplitude": float(peak.amplitude),
        "offset": float(fit.offset),
        "residual_rms": float(fit.residual_rms),
        "converged": bool(fit.converged),
        line: f0_ghz + peak.center * 1e-3,
    }


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------

def _base_model(cfg: ExperimentConfig, omega_c: float):
    return ThreeLevelModel(DriveParams(omega_p=cfg.omega_p, omega_c=omega_c), cfg.rates)


def _run_probe_spec(cfg: ExperimentConfig):
    sweep = probe_spectroscopy(_base_model(cfg, 0.0), cfg.delta_p)
    info = _line_summary(_converged_fit(cfg, sweep, "probe line"), "f01_ghz", cfg.device.omega01)
    return [("probe_spec", sweep)], {"probe_line": info}


def _run_coupler_spec(cfg: ExperimentConfig):
    base = _base_model(cfg, cfg.omega_c_values[0])
    sweep = coupler_spectroscopy(base, cfg.delta_c, *cfg.beside)
    info = _line_summary(_converged_fit(cfg, sweep, "coupler line"), "f12_ghz", cfg.device.omega12)
    return [("coupler_spec", sweep)], {"coupler_line": info}


def _run_rabi(cfg: ExperimentConfig):
    sweep = rabi_trace(_base_model(cfg, 0.0), *cfg.beside)
    # The first interior local maximum; a trace with none reports its largest value.
    k = min(_local_maxima(sweep.values), default=int(np.argmax(sweep.values)))
    info = {
        "first_maximum_us": float(sweep.axis1[k]),
        "maximum_population": float(sweep.values[k]),
        "half_period_us": 1.0 / (2.0 * cfg.omega_p),
    }
    return [("rabi", sweep)], {"rabi": info}


def _run_at_map(cfg: ExperimentConfig):
    sweep = at_map(_base_model(cfg, cfg.omega_c_values[0]), cfg.delta_p, cfg.delta_c)
    i, j = np.unravel_index(int(np.argmax(sweep.values)), sweep.values.shape)
    info = {
        "max_value": float(sweep.values[i, j]),
        "max_at_delta_p_mhz": float(sweep.axis1[i]),
        "max_at_delta_c_mhz": float(sweep.axis2[j]),
    }
    return [("at_map", sweep)], {"at_map": info}


def _run_at_slice(cfg: ExperimentConfig):
    base = _base_model(cfg, cfg.omega_c_values[0])
    sweeps = at_slice(base, cfg.delta_p, cfg.omega_c_values)
    outputs, slices = [], []
    for omega_c, sweep in zip(cfg.omega_c_values, sweeps):
        fit = _converged_fit(cfg, sweep, f"doublet at omega_c={omega_c:g} MHz")
        left, right = fit.peaks
        mean_fwhm = 0.5 * (left.fwhm + right.fwhm)
        separation = peak_separation(sweep.axis1, sweep.values)
        slices.append(
            {
                "omega_c_mhz": float(omega_c),
                "separation_mhz": separation,
                "fit_separation_mhz": right.center - left.center,
                "expected_separation_mhz": math.hypot(cfg.omega_p, omega_c),
                "mean_fwhm_mhz": mean_fwhm,
                "separation_over_fwhm": separation / mean_fwhm,
                "residual_rms": float(fit.residual_rms),
                "converged": bool(fit.converged),
            }
        )
        outputs.append((f"at_slice_omega_c_{omega_c:g}", sweep))
    return outputs, {"at_slice": slices}


def _run_fidelity_scan(cfg: ExperimentConfig):
    sweep = fidelity_vs_coupler(_base_model(cfg, 0.0), list(cfg.omega_c_values))
    points = [
        {"omega_c_mhz": float(w), "fidelity": float(f)}
        for w, f in zip(sweep.axis1, sweep.values)
    ]
    return [("fidelity_scan", sweep)], {"fidelity_scan": points}


def _run_eit_scan(cfg: ExperimentConfig):
    sweeps = eit_regime_scan(_base_model(cfg, 0.0), *cfg.beside)
    outputs, curves = [], []
    for n, sweep in enumerate(sweeps):
        outputs.append((f"eit_scan_n{n}", sweep))
        curves.append({"n": n, "fidelity_at_min_ratio": float(sweep.values[0]),
                       "fidelity_at_max_ratio": float(sweep.values[-1])})
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


def _bind_numerics() -> None:
    """Bind numpy, the fitter and the experiments into this module, imported
    here so that ``validate`` loads no numpy.  A name already bound, such as
    a ``fit_peaks`` patched by a test or a tracer, is kept."""
    import numpy as np
    from .analysis import _local_maxima, fit_peaks, peak_separation
    from .experiments import (at_map, at_slice, coupler_spectroscopy, eit_regime_scan,
                              fidelity_vs_coupler, probe_spectroscopy, rabi_trace)
    globals().update({**locals(), **globals()})


def __getattr__(name: str):
    """PEP 562: a numeric name looked up before the first ``run``."""
    if name not in _bind_numerics.__code__.co_varnames:  # the names it imports
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_numerics()
    return globals()[name]


def run_experiment(cfg: ExperimentConfig):
    """Execute the configured experiment; returns (named sweeps, summary info)."""
    _bind_numerics()
    return _RUNNERS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

def _yaml(document: dict, sort_keys: bool) -> str:
    """``document`` as safe YAML, by libyaml when PyYAML has it: the same text, faster."""
    dumper = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
    return yaml.dump(document, Dumper=dumper, sort_keys=sort_keys)


def _load(args) -> tuple[ExperimentConfig, dict]:
    """The config named by the arguments, and the head of what ``run`` writes
    to ``summary.yaml`` and ``validate`` prints: schema, experiment, parameters."""
    cfg = config_mod.load(config_mod.resolve_config_path(args.config), args.set or [])
    return cfg, {"schema": config_mod.SCHEMA_VERSION, "experiment": cfg.experiment,
                 "parameters": config_mod.describe(cfg)}


def _cmd_run(args) -> int:
    cfg, head = _load(args)
    for warning in cfg.warnings:
        print(f"warning: {warning}")

    out_dir = Path(args.out or cfg.out_dir)
    try:  # before the solve, so an unusable path fails at once
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    _bind_numerics()  # before the clock, which times the solve and the writes
    started = time.perf_counter()
    sweeps, results = run_experiment(cfg)

    files = [f"{name}.csv" for name, _ in sweeps]
    for filename, (_, sweep) in zip(files, sweeps):
        _atomic_write(out_dir / filename, _sweep_csv(sweep))
    _atomic_write(out_dir / "plots.json", [_plot_manifest(sweeps)])
    files.append("plots.json")
    document = {**head, "three_level_warnings": list(cfg.warnings), "results": results,
                "files": files}
    _atomic_write(out_dir / "summary.yaml", [_yaml(document, sort_keys=True)])
    files.append("summary.yaml")

    elapsed = time.perf_counter() - started
    print(f"{cfg.experiment}: wrote {len(files)} file(s) to {out_dir}")
    print(f"wall time: {elapsed:.3f} s")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg, head = _load(args)
    print(_yaml({**head, "output": {"directory": cfg.out_dir}}, sort_keys=False), end="")
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
    common = argparse.ArgumentParser(add_help=False)  # the arguments of both commands
    common.add_argument("config", help="config file path or bundled name (paper.cfg)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry by dotted path (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", parents=[common], help="run the configured experiment")
    run.add_argument("--out", default=None,
                     help="output directory (overrides output.directory in the config)")
    run.set_defaults(func=_cmd_run)
    validate = sub.add_parser("validate", parents=[common], help="validate a config, solve nothing")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
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
