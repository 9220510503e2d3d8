"""Write the seven canonical runs of the bundled ``paper.cfg``, one
directory per experiment, so that two source trees can be compared file
by file::

    PYTHONPATH=src python3 tools/paper_set.py OUT_DIR
    diff -r OUT_DIR OTHER_OUT_DIR

    PYTHONPATH=src python3 tools/paper_set.py --update

``--update`` rewrites the committed reference under ``tests/reference``
(``at_map.csv`` gzipped), after printing the largest relative difference
per file against the old one; tier-1 compares each run against it with
``compare``.  Each run goes through ``atsplit.cli.main`` of whichever
``atsplit`` the Python path provides.  Exits 1 if any run fails, 2 on a
usage error.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
from pathlib import Path

import yaml

from atsplit import cli

#: Experiment -> ``--set`` overrides on the bundled paper.cfg.
RUNS = {
    "at_slice": [],
    "probe_spec": ["experiment=probe_spec", "drive.omega_c_mhz=0.0"],
    "coupler_spec": ["experiment=coupler_spec", "drive.omega_p_mhz=0.0",
                     "drive.omega_c_mhz=2.82", "drive.delta_c_mhz=auto"],
    "rabi": ["experiment=rabi", "drive.omega_c_mhz=0.0",
             "pulse.durations_us={start: 0.0, stop: 20.0, count: 401}"],
    "at_map": ["experiment=at_map", "drive.omega_c_mhz=2.82", "drive.delta_c_mhz=auto"],
    "fidelity_scan": ["experiment=fidelity_scan"],
    "eit_scan": ["experiment=eit_scan"],
}

#: Reference CSV -> what re-solving one of its rows without atsplit needs
#: besides paper.cfg's rates and probe amplitude and the CSV's own header:
#: keyword arguments of ``bench/workloads.Physics``, as RUNS sets the drives.
#: A coupler_spec pulse is the default pi pulse, 1 / (2 omega_c); eit_scan
#: curve n halves gamma_21 n times.
PHYSICS = {
    "at_map/at_map.csv": {"kind": "steady", "omega_c": 2.82},
    "coupler_spec/coupler_spec.csv": {"kind": "coupler", "omega_p": 0.0, "omega_c": 2.82,
                                      "pulse_us": 1.0 / (2.0 * 2.82)},
    "fidelity_scan/fidelity_scan.csv": {"kind": "steady"},
    "probe_spec/probe_spec.csv": {"kind": "steady"},
    "rabi/rabi.csv": {"kind": "rabi"},
    **{f"at_slice/at_slice_omega_c_{w:g}.csv": {"kind": "steady", "omega_c": w}
       for w in (0.354, 0.707, 1.41, 2.82, 5.63, 11.2)},
    **{f"eit_scan/eit_scan_n{n}.csv": {"kind": "steady", "gamma_21_scale": 0.5**n}
       for n in range(10)},
}

REFERENCE = Path(__file__).resolve().parents[1] / "tests" / "reference"
#: Reference files stored with stdlib gzip; the rest are stored as written.
GZIPPED = {"at_map/at_map.csv"}
#: Largest relative difference a sweep value or summary number may show, so
#: that another numpy or BLAS still passes.
RTOL = 1e-12
#: Magnitude below which a number is roundoff around zero (a symmetric
#: line's fitted center, an exact fit's residual): the 1e-9 data resolution
#: that ``fit_peaks`` already uses.
ZERO = 1e-9


def run_all(out_dir: Path) -> int:
    failed = []
    for name, overrides in RUNS.items():
        args = ["run", "paper.cfg", "--out", str(out_dir / name)]
        code = cli.main(args + [a for item in overrides for a in ("--set", item)])
        if code != 0:
            failed.append(f"{name} (exit {code})")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


def relative_difference(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; 0 when both are below ``ZERO``."""
    scale = max(abs(a), abs(b))
    return 0.0 if a == b or scale < ZERO else abs(a - b) / scale


def _file_names(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix().removesuffix(".gz")
                  for p in root.rglob("*") if p.is_file())


def _read(root: Path, name: str) -> str:
    packed = root / (name + ".gz")
    if packed.exists():
        return gzip.decompress(packed.read_bytes()).decode()
    return (root / name).read_text()


def _compare_csv(name: str, text: str, expected: str, problems: list[str]) -> float:
    """Headers, row counts and axis values exactly; values to ``RTOL``.
    Rows are numbered from 1 after the header."""
    rows, want = ([line.split(",") for line in t.splitlines()] for t in (text, expected))
    if rows[0] != want[0] or len(rows) != len(want):
        problems.append(f"{name}: header {rows[0]} and {len(rows) - 1} rows, "
                        f"expected {want[0]} and {len(want) - 1}")
        return 0.0
    largest = 0.0
    for k, (row, ref) in enumerate(zip(rows[1:], want[1:]), start=1):
        diff = relative_difference(float(row[-1]), float(ref[-1]))
        largest = max(largest, diff)
        if row[:-1] != ref[:-1] or not diff <= RTOL:
            problems.append(f"{name} row {k}: {','.join(row)}, expected {','.join(ref)}"
                            f" (value differs by {diff:.3g} relative)")
    return largest


def _compare_tree(name: str, got, want, problems: list[str]) -> float:
    """A parsed summary: keys, strings, counts and flags exactly; floats
    to ``RTOL``.  ``name`` grows with the path to each value."""
    if isinstance(want, dict) and isinstance(got, dict) and sorted(got) == sorted(want):
        keys = sorted(want)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        keys = range(len(want))
    elif isinstance(want, float) and type(got) is float:
        diff = relative_difference(got, want)
        if not diff <= RTOL:
            problems.append(f"{name}: {got!r}, expected {want!r} ({diff:.3g} relative)")
        return diff
    else:
        if type(got) is not type(want) or got != want:
            problems.append(f"{name}: {got!r}, expected {want!r}")
        return 0.0
    return max((_compare_tree(f"{name}.{k}", got[k], want[k], problems) for k in keys),
               default=0.0)


def compare(out_dir: Path, reference: Path = REFERENCE) -> tuple[dict[str, float], list[str]]:
    """Compare a ``run_all`` tree with the reference.  Returns the largest
    relative difference per file and one line per mismatch; ``plots.json``
    must match exactly."""
    names, expected_names = _file_names(out_dir), _file_names(reference)
    problems = [] if names == expected_names else [
        f"files {sorted(set(names) ^ set(expected_names))} are in one tree only"]
    largest = {}
    for name in sorted(set(names) & set(expected_names)):
        text, expected = (out_dir / name).read_text(), _read(reference, name)
        if name.endswith(".csv"):
            largest[name] = _compare_csv(name, text, expected, problems)
        elif name.endswith(".yaml"):
            largest[name] = _compare_tree(
                name, yaml.safe_load(text), yaml.safe_load(expected), problems)
        elif text != expected:
            problems.append(f"{name}: text differs")
    return largest, problems


def update(reference: Path = REFERENCE) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        if run_all(out_dir):
            return 1
        if reference.exists():
            largest, problems = compare(out_dir, reference)
            for name, diff in largest.items():
                print(f"{name}: largest relative difference {diff:.3g}")
            print("\n".join(problems or ["every file within the tolerances"]))
            shutil.rmtree(reference)
        for name in _file_names(out_dir):
            target = reference / name
            target.parent.mkdir(parents=True, exist_ok=True)
            if name in GZIPPED:
                data = gzip.compress((out_dir / name).read_bytes(), mtime=0)
                target.with_name(target.name + ".gz").write_bytes(data)
            else:
                shutil.copyfile(out_dir / name, target)
    return 0


def main(argv: list[str]) -> int:
    if argv == ["--update"]:
        return update()
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    return run_all(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
