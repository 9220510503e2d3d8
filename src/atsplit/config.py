"""Declarative experiment configuration: schema, loading, resolution.

A config is a single YAML file with nested blocks and a mandatory
``schema`` version field.  Every key is declared once, in ``_SCHEMA``,
with the parser that checks it and its default.  Validation is strict:
unknown keys are rejected with their full dotted path, every number must
be finite, and every physics invariant of the domain types is re-checked
while resolving (so a non-physical T2*, for example, fails at load time
rather than mid-solve).
"""

from __future__ import annotations

import copy
import dataclasses
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
from .model import (
    TRANSMON_RATIO_21,
    DecoherenceRates,
    DeviceSpec,
    DriveParams,
    Grid1D,
    auto_grid,
    min_fit_points,
    rates_from_coherence_times,
    validate_three_level,
)

SCHEMA_VERSION = 1

#: Drive rules per experiment for omega_p_mhz, omega_c_mhz, delta_p_mhz and
#: delta_c_mhz, checked in that order (None: any value is allowed).
_DRIVE_RULES = {
    "probe_spec": (None, "0", "a grid or auto", "0"),
    "coupler_spec": ("0", "one value > 0", "0", "a grid or auto"),
    "rabi": ("> 0", "0", "0", "0"),
    "at_map": ("> 0", "one value > 0", "a grid or auto", "a grid or auto"),
    "at_slice": ("> 0", "> 0", "a grid or auto", "0"),
    "fidelity_scan": ("> 0", "> 0", "0", "0"),
    "eit_scan": ("> 0", None, "0", "0"),
}
_DRIVE_KEYS = ("omega_p_mhz", "omega_c_mhz", "delta_p_mhz", "delta_c_mhz")
#: Peaks fitted to the one detuning grid of probe_spec, coupler_spec and at_slice.
_FIT_PEAKS = {"probe_spec": 1, "coupler_spec": 1, "at_slice": 2}

#: Each rule tests the tuple of a drive key's values (several only for
#: coupler amplitudes); None stands for ``auto``.
_RULES = {
    "0": lambda vs: all(v is None or v == 0.0 for v in vs),
    "> 0": lambda vs: all(v > 0.0 for v in vs),
    "one value > 0": lambda vs: len(vs) == 1 and vs[0] > 0.0,
    "a grid or auto": lambda vs: vs[0] is None or isinstance(vs[0], Grid1D),
}

EXPERIMENTS = tuple(_DRIVE_RULES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved, physics-validated experiment description."""

    experiment: str
    device: DeviceSpec
    rates: DecoherenceRates
    omega_p: float
    omega_c_values: tuple[float, ...]
    delta_p: float | Grid1D | None  # None: at_slice's per-slice auto grid
    delta_c: float | Grid1D
    pulse_duration: float | None  # None unless coupler_spec
    durations: Grid1D | None  # None unless rabi
    eit_n_max: int
    eit_ratio_grid: Grid1D
    out_dir: str
    warnings: tuple[str, ...]


def bundled_config_path(name: str) -> Path:
    """Path of a config shipped inside the package (e.g. ``paper.cfg``)."""
    return Path(__file__).parent / "data" / name


def resolve_config_path(argument: str) -> Path:
    """Interpret a CLI config argument: an existing path wins (``load_raw``
    reports one it cannot read, such as a directory), then bundled names."""
    path = Path(argument)
    if path.exists():
        return path
    bundled = bundled_config_path(argument)
    if bundled.is_file():
        return bundled
    raise ConfigError(f"config file not found: {argument}")


class _Loader(yaml.SafeLoader):
    """SafeLoader that refuses a key given twice in one mapping, where PyYAML
    would keep the last value; merge keys (``<<``) still merge."""

    def construct_mapping(self, node, deep=False):
        keys = []
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                keys.append(self.construct_object(key_node, deep))
                if keys[-1] in keys[:-1]:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {keys[-1]!r}", key_node.start_mark)
        return super().construct_mapping(node, deep)


def load_raw(path: Path) -> dict:
    """Parse the YAML config file into a raw dict; a key given twice in one
    mapping is an error.  PyYAML decodes the bytes itself, so bytes that are
    not valid text fail as YAML, naming the file."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.load(data, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return raw


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``--set dotted.key=value`` overrides to the raw config dict."""
    out = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, _, text = item.partition("=")
        keys = dotted.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty key component")
        try:
            value = yaml.load(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override value for {dotted!r} is not valid YAML: {exc}") from exc
        node = out
        for key in keys[:-1]:
            if key not in node or not isinstance(node[key], dict):
                node[key] = {}
            node = node[key]
        node[keys[-1]] = value
    return out


# ---------------------------------------------------------------------------
# Parsers: each takes a raw value (never None) and its dotted key, and
# returns the parsed value or raises a ConfigError naming the key.
# ---------------------------------------------------------------------------

_REQUIRED = object()  # default of a key that has none

#: A number in exponent form: mantissa, e, exponent sign and digits.
_EXPONENT = re.compile(r"([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+))([eE])([-+]?)([0-9]+)")


def _why_text(value) -> str:
    """The reason and the fix when YAML 1.1 read ``value``, a number in
    exponent form lacking a decimal point or an exponent sign, as text."""
    match = _EXPONENT.fullmatch(value) if isinstance(value, str) else None
    if not match or "." in match[1] and match[3]:  # a quoted float, not a YAML rule
        return ""
    mantissa = match[1] if "." in match[1] else match[1] + ".0"
    return (f" (YAML reads a number in exponent form as text unless it has a decimal point"
            f" and an exponent sign: write {mantissa}{match[2]}{match[3] or '+'}{match[4]})")


def _number(bound: str = ""):
    """Parser for a finite number, optionally ``">= 0"`` or ``"> 0"``."""

    def parse(value, key: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key '{key}' must be a number, got {value!r}{_why_text(value)}")
        if not abs(value) <= sys.float_info.max:  # nan, +-inf, or an int beyond float range
            raise ConfigError(f"key '{key}' must be finite, got {value!r}")
        if (bound == ">= 0" and value < 0) or (bound == "> 0" and value <= 0):
            raise ConfigError(f"key '{key}' must be {bound}, got {value!r}")
        return float(value)

    return parse


def _count(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"key '{key}' must be a non-negative integer, got {value!r}")
    return value


def _grid(start_bound: str = ""):
    """Parser for a start/stop/count grid, optionally with ``start >= 0``."""

    def parse(value, key: str) -> Grid1D:
        if not isinstance(value, dict):
            raise ConfigError(f"key '{key}' must be a mapping with start/stop/count")
        rows = {f"{key}.start": (_number(start_bound), _REQUIRED),
                f"{key}.stop": (_number(), _REQUIRED),
                f"{key}.count": (_count, _REQUIRED)}
        fields = _walk(value, rows, key)
        try:
            return Grid1D(*(fields[name] for name in rows))
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}") from exc

    return parse


def _detuning(value, key: str) -> float | Grid1D | None:
    """Parser for a detuning: a number, a grid, or ``auto`` (None)."""
    if value == "auto":
        return None
    if isinstance(value, dict):
        return _grid()(value, key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number()(value, key)
    raise ConfigError(f"key '{key}' must be a number, a start/stop/count mapping,"
                      f" or 'auto'{_why_text(value)}")


def _couplers(value, key: str) -> tuple[float, ...]:
    """Parser for coupler amplitudes: one number >= 0 or a non-empty list of
    them, distinct under ``%g`` because each names an ``at_slice`` file."""
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(f"key '{key}' must be a number or a non-empty list of numbers")
    values = tuple(_number(">= 0")(item, key) for item in items)
    if len({f"{v:g}" for v in values}) < len(values):
        raise ConfigError(f"key '{key}' values must differ under %g, got {value!r}")
    return values


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key '{key}' must be a string")
    return value


def _experiment(value, key: str) -> str:
    if value not in EXPERIMENTS:
        raise ConfigError(
            f"key '{key}': must be one of {', '.join(EXPERIMENTS)}, got {value!r}"
        )
    return value


def _schema_version(value, key: str) -> int:
    if type(value) is not int or value != SCHEMA_VERSION:
        raise ConfigError(f"key '{key}': unsupported version {value!r}, expected {SCHEMA_VERSION}")
    return value


def _block(value, key: str) -> dict:
    """Marks a nested block; its keys are the rows below it."""
    if not isinstance(value, dict):
        raise ConfigError(f"block '{key}' must be a mapping")
    return value


#: Every config key: dotted key -> (parser, default or _REQUIRED).  A key
#: inside an optional block is only required when the block is present.
_SCHEMA = {
    "schema": (_schema_version, _REQUIRED),
    "experiment": (_experiment, _REQUIRED),
    "device": (_block, _REQUIRED),
    "device.omega01_ghz": (_number(), _REQUIRED),
    "device.omega12_ghz": (_number(), _REQUIRED),
    "rates": (_block, _REQUIRED),
    "rates.t1_us": (_number("> 0"), _REQUIRED),
    "rates.t2_star_us": (_number("> 0"), _REQUIRED),
    "rates.ratio_21": (_number(">= 0"), TRANSMON_RATIO_21),
    "drive": (_block, _REQUIRED),
    "drive.omega_p_mhz": (_number(">= 0"), _REQUIRED),
    "drive.omega_c_mhz": (_couplers, (0.0,)),
    "drive.delta_p_mhz": (_detuning, None),
    "drive.delta_c_mhz": (_detuning, None),
    "pulse": (_block, None),
    "pulse.duration_us": (_number(">= 0"), None),
    "pulse.durations_us": (_grid(">= 0"), None),
    "eit": (_block, None),
    "eit.n_max": (_count, 9),
    "eit.ratio_grid": (_grid(">= 0"), Grid1D(0.25, 60.25, 81)),
    "output": (_block, None),
    "output.directory": (_string, "results"),
}


def _walk(node: dict, schema: dict, path: str = "") -> dict:
    """Check the mapping found at dotted ``path`` against the ``schema`` rows
    directly below it, then descend into its blocks.

    Returns {dotted key: parsed value} for every key present; a null value
    counts as absent.  Unknown keys are reported first, then missing
    required blocks and keys, then each value's own checks.
    """
    rows = {}
    for name in schema:
        parent, _, leaf = name.rpartition(".")
        if parent == path:
            rows[leaf] = name
    for key in node:
        if key not in rows:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")
    for key, name in rows.items():
        parse, default = schema[name]
        if node.get(key) is None and default is _REQUIRED:
            raise ConfigError(f"missing required {'block' if parse is _block else 'key'} '{name}'")
    values = {}
    for key, name in rows.items():
        if node.get(key) is not None:
            parse = schema[name][0]
            values[name] = parse(node[key], name)
            if parse is _block:
                values.update(_walk(node[key], schema, name))
    return values


def resolve(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and build the resolved configuration."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    values = _walk(raw, _SCHEMA)

    def get(name):
        return values.get(name, _SCHEMA[name][1])

    try:
        device = DeviceSpec(get("device.omega01_ghz"), get("device.omega12_ghz"))
    except ValueError as exc:
        raise ConfigError(f"block 'device': {exc}") from exc
    try:
        rates = rates_from_coherence_times(
            get("rates.t1_us"), get("rates.t2_star_us"), ratio_21=get("rates.ratio_21")
        )
    except ValueError as exc:
        raise ConfigError(f"block 'rates': {exc}") from exc

    experiment = get("experiment")
    drive = [get(f"drive.{key}") for key in _DRIVE_KEYS]
    omega_p, omega_c_values = drive[:2]
    least = min_fit_points(_FIT_PEAKS[experiment]) if experiment in _FIT_PEAKS else 0
    for key, rule, value in zip(_DRIVE_KEYS, _DRIVE_RULES[experiment], drive):
        if rule and not _RULES[rule](value if isinstance(value, tuple) else (value,)):
            raise ConfigError(f"key 'drive.{key}' must be {rule} for {experiment}")
        if isinstance(value, Grid1D) and value.count < least:
            raise ConfigError(f"key 'drive.{key}.count' must be at least {least} for {experiment}")
    # A detuning the experiment holds at 0 may be given as auto; it is 0.0.
    delta_p, delta_c = (0.0 if rule == "0" else value
                        for rule, value in zip(_DRIVE_RULES[experiment][2:], drive[2:]))
    if experiment == "rabi" and get("pulse.durations_us") is None:
        raise ConfigError("missing required key 'pulse.durations_us' for rabi")

    omega_c = omega_c_values[0]
    largest_ratio = get("eit.ratio_grid").stop  # eit_scan drives omega_c = ratio * omega_p
    couplers = (largest_ratio * omega_p,) if experiment == "eit_scan" else omega_c_values
    if experiment == "eit_scan" and not couplers[0] <= sys.float_info.max:
        raise ConfigError("key 'eit.ratio_grid.stop' times 'drive.omega_p_mhz' overflows")
    warnings = []
    try:  # an auto grid's span grows with the coupler amplitude and may overflow
        # at_slice's auto probe grid stays None: each slice has its own.
        delta_p, delta_c = (auto_grid(experiment, omega_c) if d is None and experiment != "at_slice"
                            else d for d in (delta_p, delta_c))
        for omega in couplers:
            probe = auto_grid("at_slice", omega) if delta_p is None else delta_p
            # A grid warns at its endpoint farthest from resonance.
            farthest = [max(d.start, d.stop, key=abs) if isinstance(d, Grid1D) else d
                        for d in (probe, delta_c)]
            warnings.extend(validate_three_level(DriveParams(*farthest, omega_p, omega), device))
    except ValueError as exc:
        raise ConfigError(f"key 'drive.omega_c_mhz' is too large for an auto grid: {exc}") from exc
    pulse_duration = get("pulse.duration_us") if experiment == "coupler_spec" else None
    durations = get("pulse.durations_us") if experiment == "rabi" else None
    if experiment == "coupler_spec" and pulse_duration is None:
        pulse_duration = 1.0 / (2.0 * omega_c)  # ideal pi pulse
        if not pulse_duration <= sys.float_info.max:
            raise ConfigError(f"key 'drive.omega_c_mhz': pi pulse 1/(2*{omega_c!r}) overflows")

    return ExperimentConfig(
        experiment=experiment,
        device=device,
        rates=rates,
        omega_p=omega_p,
        omega_c_values=omega_c_values,
        delta_p=delta_p,
        delta_c=delta_c,
        pulse_duration=pulse_duration,
        durations=durations,
        eit_n_max=get("eit.n_max"),
        eit_ratio_grid=get("eit.ratio_grid"),
        out_dir=get("output.directory"),
        warnings=tuple(dict.fromkeys(warnings)),
    )


def load(path: Path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Load, override, validate, and resolve a config file."""
    raw = load_raw(path)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return resolve(raw)


def describe(cfg: ExperimentConfig) -> dict:
    """The resolved parameters as plain data under config key names: what
    ``summary.yaml`` records under ``parameters`` and ``validate`` prints.

    A grid is its start/stop/count mapping; ``auto`` is left only for
    at_slice's per-slice probe grid.  ``pulse`` appears for coupler_spec
    and rabi only, ``eit`` for eit_scan only.
    """

    def plain(value):
        if isinstance(value, Grid1D):
            return dataclasses.asdict(value)
        return "auto" if value is None else value

    parameters = {
        "device": {"omega01_ghz": cfg.device.omega01, "omega12_ghz": cfg.device.omega12,
                   "alpha_mhz": cfg.device.alpha},
        "rates_per_us": dataclasses.asdict(cfg.rates),
        "drive": {"omega_p_mhz": cfg.omega_p, "omega_c_mhz": list(cfg.omega_c_values),
                  "delta_p_mhz": plain(cfg.delta_p), "delta_c_mhz": plain(cfg.delta_c)},
    }
    pulse = {key: plain(value) for key, value in
             (("duration_us", cfg.pulse_duration), ("durations_us", cfg.durations))
             if value is not None}
    if pulse:
        parameters["pulse"] = pulse
    if cfg.experiment == "eit_scan":
        parameters["eit"] = {"n_max": cfg.eit_n_max, "ratio_grid": plain(cfg.eit_ratio_grid)}
    return parameters
