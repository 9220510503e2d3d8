"""Every committed reference CSV against the independent reference of
``bench/check.py``, which builds the generator with ``np.kron`` and shares no
code with atsplit.  ``TestPaperSet`` compares a run with ``tests/reference``,
so it catches drift; this checks that the reference itself is right.

Each file's physics comes from ``tools/paper_set.PHYSICS``, beside the runs
that wrote it, with the rates and probe amplitude of the bundled
``paper.cfg``.  A file of at most ``DRAWS`` rows is re-solved whole, every
row with ``check.reference_value``; of the 90,601-row map, the rows holding
the smallest and the largest value and ``DRAWS`` seeded rows.  The tolerance
is a flat 1e-12 absolute, tighter than check.py's own on every row (at
least 1e-10): the worst difference measured over every row is below 1e-14,
and a value moved by 1e-9 fails."""

import functools

import numpy as np
import pytest
import yaml

from conftest import ROOT, load_module

TOLERANCE = 1e-12
DRAWS = 2000

workloads = load_module(ROOT / "bench" / "workloads.py")  # before check, which imports it
check = load_module(ROOT / "bench" / "check.py")
paper_set = load_module(ROOT / "tools" / "paper_set.py")

FILES = sorted(p.relative_to(paper_set.REFERENCE).as_posix().removesuffix(".gz")
               for p in paper_set.REFERENCE.rglob("*.csv*"))
PAPER = yaml.safe_load((ROOT / "src" / "atsplit" / "data" / "paper.cfg").read_text())


def _physics(name: str, observable: str):
    """What the reference needs for the file ``name`` (run/file.csv)."""
    rates = PAPER["rates"]
    return workloads.Physics(**{
        "t1": rates["t1_us"], "t2_star": rates["t2_star_us"], "ratio_21": rates["ratio_21"],
        "omega_p": PAPER["drive"]["omega_p_mhz"], "observable": observable,
        **paper_set.PHYSICS[name]})


@functools.lru_cache(maxsize=None)
def _table(name: str) -> tuple[tuple[str, ...], np.ndarray]:
    header, *rows = paper_set._read(paper_set.REFERENCE, name).splitlines()
    return tuple(header.split(",")), np.array([row.split(",") for row in rows], dtype=float)


def _problems(name: str, header: tuple[str, ...], data: np.ndarray, draws: int) -> list[str]:
    """One line per re-solved row off the reference by more than TOLERANCE.
    Rows are numbered from 1 after the header, as ``paper_set`` numbers them."""
    spec = workloads.CsvSpec(name, header, len(data), _physics(name, header[-1]))
    values = data[:, -1]
    rows = {int(np.argmin(values)), int(np.argmax(values))}
    rng = np.random.default_rng(0)
    rows.update(rng.choice(len(data), size=min(draws, len(data)), replace=False).tolist())
    problems = []
    for i in sorted(rows):
        expected, _ = check.reference_value(spec, data[i])
        if not abs(values[i] - expected) <= TOLERANCE:
            problems.append(f"{name} row {i + 1}: {values[i]!r}, reference {expected!r}")
    return problems


def test_every_reference_csv_is_checked():
    assert len(FILES) == 21 and "at_map/at_map.csv" in FILES
    assert sorted(paper_set.PHYSICS) == FILES


def test_only_the_map_is_sampled():
    assert [name for name in FILES if len(_table(name)[1]) > DRAWS] == ["at_map/at_map.csv"]


@pytest.mark.parametrize("name", FILES)
def test_reference_csv_matches_the_independent_reference(name):
    assert _problems(name, *_table(name), DRAWS) == []


def test_largest_value_moved_by_1e_11_is_named_by_file_and_row():
    """Only the extreme rows are re-solved here: the moved one is the largest."""
    for name in FILES:
        header, data = _table(name)
        moved = data.copy()
        k = int(np.argmax(moved[:, -1]))
        moved[k, -1] += 1e-11
        problems = _problems(name, header, moved, draws=0)
        assert len(problems) == 1 and problems[0].startswith(f"{name} row {k + 1}: "), problems
