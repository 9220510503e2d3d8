"""Seeded workload definitions: generated configs and the CLI calls that use them.

Every workload starts from the bundled ``paper.cfg`` (device and coherence
times of the published sample) and changes only what the seed chooses. The
program sees the generated config file plus ``--set`` overrides, nothing else.
Each call carries the expectations the output check needs: which files it
writes, how many rows each CSV has, and the physics needed to re-solve any row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

PAPER_CFG = Path("src") / "atsplit" / "data" / "paper.cfg"

#: Coupler amplitudes of the published doublet figure, MHz.
PUBLISHED_COUPLERS = (0.354, 0.707, 1.41, 2.82, 5.63, 11.2)

#: Points in each ``at_slice`` sweep when the probe grid is ``auto``.
AUTO_SLICE_COUNT = 401


@dataclass(frozen=True)
class Physics:
    """What the reference needs to recompute one CSV, all in config units."""

    t1: float
    t2_star: float
    ratio_21: float
    omega_p: float
    #: "steady" (steady-state solve), "rabi" (evolve from |0>) or "coupler"
    #: (evolve from |1> for ``pulse_us``); the CSV header names the swept
    #: parameters.
    kind: str
    observable: str
    omega_c: float = 0.0
    gamma_21_scale: float = 1.0
    pulse_us: float = 0.0


@dataclass(frozen=True)
class CsvSpec:
    name: str
    header: tuple[str, ...]
    rows: int
    physics: Physics
    #: Exact axis values the CSV must hold, or None where the program picks
    #: the grid itself (then only count and ordering are checked).
    axes: tuple[np.ndarray, ...] | None = None


@dataclass(frozen=True)
class Call:
    """One ``atsplit run`` invocation and what it must produce."""

    label: str
    overrides: tuple[str, ...]
    csvs: tuple[CsvSpec, ...]
    #: Number of fits in ``summary.yaml``; each must read ``converged: true``.
    fits: int = 0

    @property
    def files(self) -> set[str]:
        return {c.name for c in self.csvs} | {"plots.json", "summary.yaml"}

    @property
    def rows(self) -> int:
        return sum(c.rows for c in self.csvs)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    calls: tuple[Call, ...]

    def write_config(self, path: Path) -> Path:
        # JSON is valid YAML, so the program's loader reads it unchanged.
        path.write_text(json.dumps(self.config, indent=1) + "\n")
        return path


def _paper() -> dict:
    return yaml.safe_load(PAPER_CFG.read_text())


def _grid(start: float, stop: float, count: int) -> dict:
    return {"start": start, "stop": stop, "count": count}


def _grid_text(grid: dict) -> str:
    return "{start: %r, stop: %r, count: %d}" % (grid["start"], grid["stop"], grid["count"])


def _points(grid: dict) -> np.ndarray:
    return np.linspace(grid["start"], grid["stop"], grid["count"])


def _base_physics(cfg: dict, **kw) -> Physics:
    rates = cfg["rates"]
    return Physics(
        t1=rates["t1_us"],
        t2_star=rates["t2_star_us"],
        ratio_21=rates.get("ratio_21", 1.41),
        omega_p=kw.pop("omega_p", cfg["drive"]["omega_p_mhz"]),
        **kw,
    )


def _config(paper: dict, experiment: str, drive: dict, **blocks) -> dict:
    cfg = {
        "schema": paper["schema"],
        "experiment": experiment,
        "device": paper["device"],
        "rates": paper["rates"],
        "drive": drive,
        "output": paper["output"],
    }
    cfg.update(blocks)
    return cfg


def map_workload(seed: int, points: int = 301) -> Workload:
    """One ~300x300 Autler-Townes map near the paper's 2.82 MHz coupler."""
    rng = np.random.default_rng([seed, 1])
    paper = _paper()
    omega_c = round(float(rng.uniform(2.5, 3.1)), 4)
    limit = round((2.0 * omega_c + 2.0) * float(rng.uniform(0.9, 1.1)), 4)
    grid = _grid(-limit, limit, points)
    drive = {
        "omega_p_mhz": paper["drive"]["omega_p_mhz"],
        "omega_c_mhz": omega_c,
        "delta_p_mhz": grid,
        "delta_c_mhz": grid,
    }
    cfg = _config(paper, "at_map", drive)
    dp = _points(grid)
    csv = CsvSpec(
        name="at_map.csv",
        header=("delta_p_mhz", "delta_c_mhz", "pa_sum"),
        rows=dp.size * dp.size,
        physics=_base_physics(cfg, kind="steady", observable="pa_sum", omega_c=omega_c),
        axes=(np.repeat(dp, dp.size), np.tile(dp, dp.size)),
    )
    return Workload("map", cfg, (Call("at_map", (), (csv,)),))


def _seeded_couplers(rng, count: int) -> list[float]:
    """Coupler amplitudes spread log-uniformly over the published range.

    One value is drawn in each of ``count`` equal log-width bins, so every
    seed gets the same mix of weak and strong couplers (and about the same
    fit cost) while the values themselves change. Values keep 4 significant
    digits and stay distinct under ``%g``, which names the output files.
    """
    lo, hi = math.log(PUBLISHED_COUPLERS[0]), math.log(PUBLISHED_COUPLERS[-1])
    names = {f"{w:g}" for w in PUBLISHED_COUPLERS}
    values = []
    for k in range(count):
        while True:
            u = (k + rng.uniform()) / count
            w = float(f"{math.exp(lo + u * (hi - lo)):.4g}")
            if f"{w:g}" not in names:
                break
        names.add(f"{w:g}")
        values.append(w)
    return values


def paper_workload(seed: int) -> Workload:
    """The paper's figure set: doublet slices, fidelity curve, EIT curves."""
    rng = np.random.default_rng([seed, 2])
    paper = _paper()
    couplers = sorted(list(PUBLISHED_COUPLERS) + _seeded_couplers(rng, 48))
    ratio_grid = _grid(
        round(float(rng.uniform(0.2, 0.3)), 4), round(float(rng.uniform(55.0, 65.0)), 3), 2001
    )
    n_max = 9
    drive = {
        "omega_p_mhz": paper["drive"]["omega_p_mhz"],
        "omega_c_mhz": couplers,
        "delta_p_mhz": "auto",
        "delta_c_mhz": 0.0,
    }
    cfg = _config(paper, "at_slice", drive, eit={"n_max": n_max, "ratio_grid": ratio_grid})
    slices = tuple(
        CsvSpec(
            name=f"at_slice_omega_c_{w:g}.csv",
            header=("delta_p_mhz", "pa_sum"),
            rows=AUTO_SLICE_COUNT,
            physics=_base_physics(cfg, kind="steady", observable="pa_sum", omega_c=w),
        )
        for w in couplers
    )
    fidelity = CsvSpec(
        name="fidelity_scan.csv",
        header=("omega_c_mhz", "fidelity"),
        rows=len(couplers),
        physics=_base_physics(cfg, kind="steady", observable="fidelity"),
        axes=(np.array(couplers),),
    )
    ratios = _points(ratio_grid)
    eit = tuple(
        CsvSpec(
            name=f"eit_scan_n{n}.csv",
            header=("omega_c_over_omega_p", "fidelity"),
            rows=ratios.size,
            physics=_base_physics(
                cfg, kind="steady", observable="fidelity", gamma_21_scale=0.5**n
            ),
            axes=(ratios,),
        )
        for n in range(n_max + 1)
    )
    calls = (
        Call("at_slice", (), slices, fits=len(couplers)),
        Call("fidelity_scan", ("experiment=fidelity_scan",), (fidelity,)),
        Call("eit_scan", ("experiment=eit_scan",), eit),
    )
    return Workload("paper", cfg, calls)


def pulsed_workload(seed: int) -> Workload:
    """Time-domain experiments: a Rabi trace, then a coupler line scan."""
    rng = np.random.default_rng([seed, 3])
    paper = _paper()
    durations = _grid(0.0, round(float(rng.uniform(18.0, 22.0)), 3), 401)
    omega_c = round(float(rng.uniform(0.7, 2.8)), 4)
    limit = 2.0 * omega_c + 1.0
    detunings = _grid(-limit, limit, 401)
    drive = {
        "omega_p_mhz": paper["drive"]["omega_p_mhz"],
        "omega_c_mhz": 0.0,
        "delta_p_mhz": 0.0,
        "delta_c_mhz": 0.0,
    }
    cfg = _config(paper, "rabi", drive, pulse={"durations_us": durations})
    rabi = CsvSpec(
        name="rabi.csv",
        header=("duration_us", "population1"),
        rows=durations["count"],
        physics=_base_physics(cfg, kind="rabi", observable="population1"),
        axes=(_points(durations),),
    )
    coupler = CsvSpec(
        name="coupler_spec.csv",
        header=("delta_c_mhz", "pb_second"),
        rows=detunings["count"],
        physics=_base_physics(
            cfg,
            kind="coupler",
            observable="pb_second",
            omega_p=0.0,
            omega_c=omega_c,
            pulse_us=1.0 / (2.0 * omega_c),  # the program's default pi pulse
        ),
        axes=(_points(detunings),),
    )
    coupler_overrides = (
        "experiment=coupler_spec",
        "drive.omega_p_mhz=0.0",
        f"drive.omega_c_mhz={omega_c!r}",
        f"drive.delta_c_mhz={_grid_text(detunings)}",
    )
    calls = (
        Call("rabi", (), (rabi,)),
        Call("coupler_spec", coupler_overrides, (coupler,), fits=1),
    )
    return Workload("pulsed", cfg, calls)


WORKLOADS = {
    "map": map_workload,
    "paper": paper_workload,
    "pulsed": pulsed_workload,
}
