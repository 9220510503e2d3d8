"""Every numeric config key, generated from ``config._SCHEMA``, at extreme
values on small grids: each run of ``atsplit run`` exits 0, 2, 3 or 4,
with no traceback and no numpy warning.

A key is swept on every experiment whose run reads it past validation;
elsewhere it would only repeat the same validation.  Count keys
(``*.count``, ``eit.n_max``) are not swept: their work has no ceiling yet.
"""

import pytest

from atsplit import cli, config

#: Written as YAML 1.1 reads them; the config loader also reads the
#: exponent forms that ``repr`` writes, such as ``1e+300``.
VALUES = ["0.0", "5.0e-324", "1.0e-300", "1.0e-12", "1.0", "1.0e+12", "1.0e+300", "1.7e+308",
          "-1.0e+300"]

NUMERIC_KEYS = [
    key for key, (parse, _) in config._SCHEMA.items()
    if parse in (config._couplers, config._detuning)
    or parse.__qualname__ == config._number.__qualname__ + ".<locals>.parse"
]

#: The experiments a key or block is swept on, where not all seven.  No
#: solve reads the device block: it sets only the three-level warnings, the
#: same arithmetic for every experiment.  Only coupler_spec reads the pulse
#: duration.
READERS = {
    "device": ("at_slice",),
    "pulse.duration_us": ("coupler_spec",),
}

HEAD = """\
schema: 1
device: {omega01_ghz: 4.294085, omega12_ghz: 4.116609}
rates: {t1_us: 39.0, t2_star_us: 51.0}
"""

#: Each experiment's drive, and its pulse or eit block, on a small grid.
BODIES = {
    "probe_spec": "drive: {omega_p_mhz: 0.186, delta_p_mhz: {start: -1.0, stop: 1.0, count: 20}}",
    "coupler_spec": "drive: {omega_p_mhz: 0.0, omega_c_mhz: 2.82,"
                    " delta_c_mhz: {start: -5.0, stop: 5.0, count: 20}}",
    "rabi": "drive: {omega_p_mhz: 0.186}\n"
            "pulse: {durations_us: {start: 0.0, stop: 8.0, count: 21}}",
    "at_map": "drive: {omega_p_mhz: 0.186, omega_c_mhz: 2.82,"
              " delta_p_mhz: {start: -4.0, stop: 4.0, count: 5},"
              " delta_c_mhz: {start: -4.0, stop: 4.0, count: 5}}",
    "at_slice": "drive: {omega_p_mhz: 0.186, omega_c_mhz: 2.82,"
                " delta_p_mhz: {start: -4.0, stop: 4.0, count: 35}}",
    "fidelity_scan": "drive: {omega_p_mhz: 0.186, omega_c_mhz: [0.354, 2.82]}",
    "eit_scan": "drive: {omega_p_mhz: 0.186}\n"
                "eit: {n_max: 0, ratio_grid: {start: 0.5, stop: 20.5, count: 5}}",
}


def test_sweeps_the_ten_numeric_keys_and_every_experiment():
    assert len(NUMERIC_KEYS) == 10
    assert "drive.delta_c_mhz" in NUMERIC_KEYS and "eit.n_max" not in NUMERIC_KEYS
    assert sorted(BODIES) == sorted(config.EXPERIMENTS)


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    """experiment -> path of its base config."""
    root = tmp_path_factory.mktemp("sweep")
    files = {}
    for name, body in BODIES.items():
        path = root / f"{name}.cfg"
        path.write_text(f"{HEAD}experiment: {name}\n{body}\n")
        files[name] = path
    return files


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_extreme_values_exit_with_a_documented_code(key, config_files, tmp_path, capsys):
    block = key.partition(".")[0]
    failures = []
    for name in READERS.get(key, READERS.get(block, config.EXPERIMENTS)):
        path = config_files[name]
        for value in VALUES:
            args = ["run", str(path), "--out", str(tmp_path), "--set", f"{key}={value}"]
            try:
                code = cli.main(args)
            except Exception as exc:  # any exception fails the case, a numpy warning included
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if code not in (0, 2, 3, 4) or "Traceback" in err:
                failures.append(f"{name} {key}={value}: {code}")
    assert failures == []


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_json_spelling_validates_as_the_yaml_spelling(key, config_files, capsys):
    """Each value spelled as ``repr`` and ``json.dumps`` write it, such as
    ``5e-324`` or ``1e+300``, validates with the same exit code and output
    as its spelling in ``VALUES``."""
    block = key.partition(".")[0]
    for name in READERS.get(key, READERS.get(block, config.EXPERIMENTS)):
        for value in (v for v in VALUES if repr(float(v)) != v):
            printed = []
            for text in (value, repr(float(value))):
                code = cli.main(["validate", str(config_files[name]), "--set", f"{key}={text}"])
                printed.append((code, *capsys.readouterr()))
            assert printed[0] == printed[1], f"{name} {key}={value}"
