"""Output check with an independent numpy reference.

The reference shares no code with ``atsplit``. It builds the 9x9 Lindblad
generator from T1/T2* with ``np.kron`` (column-stacking convention), replaces
one row with the trace constraint and solves densely for steady states. For
pulses it applies the exact propagator ``exp(tL)``, taken from an
eigendecomposition of L.

Tolerances, and why they hold:

* steady states: ``1e-10 + 64 * eps * cond(A)``, where A is the reference's
  trace-constrained matrix. A backward-stable dense solve of A has a forward
  error of order ``eps * cond(A)``; both solvers meet that bound, so their
  difference does too, with a safety factor of 64. The 1e-10 floor is the
  residual limit the program itself accepts.
* pulses: ``PULSE_TOL`` = 2e-6. The pulsed experiments integrate with
  classic RK4 at dt = 1/(200 f_max), so |dt * lambda| <= 2*pi*sqrt(2)/200 ~
  0.044 for every eigenvalue lambda of L met here. The global RK4 error after
  a phase of t*|lambda| radians is about ``t*|lambda| * (dt*|lambda|)**4 / 120``,
  under 4e-7 for the Rabi traces (<= 22 us, <= 26 rad) and for the coupler
  pi pulses (<= 12 rad). The tolerance leaves a factor 5 above that bound;
  the measured worst difference is below 1e-7.

Besides values, a call passes only if it exited 0, wrote exactly the expected
files, every CSV has the expected header, row count and axis values, every
value is finite and inside [0, 1 + 1e-10], and every fit in ``summary.yaml``
reads ``converged: true``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import Call, CsvSpec, Physics

PULSE_TOL = 2e-6
_EPS = np.finfo(float).eps
_I3 = np.eye(3)
_TRACE_ROW = (0, 4, 8)

#: Which parameter each CSV axis column sets.
_AXIS_PARAMS = {
    "delta_p_mhz": "delta_p",
    "delta_c_mhz": "delta_c",
    "omega_c_mhz": "omega_c",
    "omega_c_over_omega_p": "ratio",
    "duration_us": "t",
}


def _ket_bra(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def liouvillian(p: Physics, delta_p: float, delta_c: float, omega_c: float) -> np.ndarray:
    """Column-stacked generator: vec(A X B) = (B^T kron A) vec(X), rad/us."""
    w = 2.0 * math.pi
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = -w * delta_p
    h[2, 2] = -w * (delta_p + delta_c)
    h[0, 1] = h[1, 0] = w * p.omega_p / 2.0
    h[1, 2] = h[2, 1] = w * omega_c / 2.0

    gamma_10 = 1.0 / p.t1
    phi = 1.0 / p.t2_star - 0.5 * gamma_10
    jumps = [
        math.sqrt(gamma_10) * _ket_bra(0, 1),
        math.sqrt(p.ratio_21 * gamma_10 * p.gamma_21_scale) * _ket_bra(1, 2),
        math.sqrt(2.0 * phi) * _ket_bra(1, 1),
        math.sqrt(2.0 * phi) * _ket_bra(2, 2),
    ]
    lsup = -1j * (np.kron(_I3, h) - np.kron(h.T, _I3))
    for c in jumps:
        cdc = c.conj().T @ c
        lsup += np.kron(c.conj(), c) - 0.5 * np.kron(_I3, cdc) - 0.5 * np.kron(cdc.T, _I3)
    return lsup


def steady_rho(lsup: np.ndarray) -> tuple[np.ndarray, float]:
    """Trace-constrained dense solve; returns rho and cond of the system."""
    a = lsup.copy()
    a[0, :] = 0.0
    a[0, list(_TRACE_ROW)] = 1.0
    b = np.zeros(9, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(a, b).reshape(3, 3, order="F")
    return 0.5 * (rho + rho.conj().T), float(np.linalg.cond(a))


def propagate(lsup: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(tL) vec(rho0) from the eigendecomposition L = V diag(w) V^-1."""
    w, v = np.linalg.eig(lsup)
    coeffs = np.linalg.solve(v, rho0.reshape(9, order="F"))
    rho = (v @ (np.exp(t * w) * coeffs)).reshape(3, 3, order="F")
    return 0.5 * (rho + rho.conj().T)


def _observable(name: str, rho: np.ndarray, theta: float = 0.0) -> float:
    if name == "pa_sum":
        return max(0.0, rho[1, 1].real + rho[2, 2].real)
    if name == "pb_second":
        return max(0.0, rho[2, 2].real)
    if name == "population1":
        return max(0.0, rho[1, 1].real)
    if name == "fidelity":
        dark = np.array([math.cos(theta), 0.0, -math.sin(theta)])
        return math.sqrt(min(max((dark @ rho @ dark).real, 0.0), 1.0))
    raise ValueError(f"unknown observable {name!r}")


def reference_value(spec: CsvSpec, row: np.ndarray) -> tuple[float, float]:
    """Reference value for one CSV row and the tolerance it must meet."""
    p = spec.physics
    params = {"delta_p": 0.0, "delta_c": 0.0, "omega_c": p.omega_c, "t": 0.0}
    for name, x in zip(spec.header[:-1], row[:-1]):
        key = _AXIS_PARAMS[name]
        if key == "ratio":
            key, x = "omega_c", x * p.omega_p
        params[key] = float(x)
    lsup = liouvillian(p, params["delta_p"], params["delta_c"], params["omega_c"])
    if p.kind == "steady":
        rho, cond = steady_rho(lsup)
        theta = math.atan2(p.omega_p, params["omega_c"])
        return _observable(p.observable, rho, theta), 1e-10 + 64.0 * _EPS * cond
    if p.kind == "rabi":
        rho = propagate(lsup, _ket_bra(0, 0), params["t"])
    else:
        rho = propagate(lsup, _ket_bra(1, 1), p.pulse_us)
    return _observable(p.observable, rho), PULSE_TOL


def check_csv(path: Path, spec: CsvSpec, rng: np.random.Generator, k: int) -> list[str]:
    """Problems found in one CSV.

    The rows holding the smallest and largest value (the features a figure
    is read by) and ``k`` rows drawn from ``rng`` are re-solved.
    """
    with path.open() as f:
        header = tuple(f.readline().rstrip("\n").split(","))
    if header != spec.header:
        return [f"{spec.name}: header {header} != {spec.header}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (spec.rows, len(spec.header)):
        return [f"{spec.name}: shape {data.shape} != {(spec.rows, len(spec.header))}"]
    problems = []
    values = data[:, -1]
    if not np.all(np.isfinite(data)):
        problems.append(f"{spec.name}: non-finite entries")
    elif values.min() < 0.0 or values.max() > 1.0 + 1e-10:
        problems.append(f"{spec.name}: values leave [0, 1]: {values.min()!r}..{values.max()!r}")
    if spec.axes is not None:
        for col, axis in enumerate(spec.axes):
            if not np.allclose(data[:, col], axis, rtol=1e-12, atol=1e-12):
                problems.append(f"{spec.name}: column {spec.header[col]} is not the configured grid")
    elif len(spec.header) == 2 and not np.all(np.diff(data[:, 0]) > 0.0):
        problems.append(f"{spec.name}: axis is not strictly increasing")
    if problems:
        return problems
    rows = {int(np.argmin(values)), int(np.argmax(values))}
    rows.update(int(i) for i in rng.choice(spec.rows, size=min(k, spec.rows), replace=False))
    for i in sorted(rows):
        expected, tol = reference_value(spec, data[i])
        if not abs(values[i] - expected) <= tol:
            problems.append(
                f"{spec.name} row {i}: {values[i]!r} vs reference {expected!r} (tol {tol:.1e})"
            )
    return problems


_CONVERGED = re.compile(r"^\s*(?:- )?converged: (true|false)\s*$", re.MULTILINE)


def check_call(call: Call, out_dir: Path, exit_code: int, rng: np.random.Generator,
               k: int = 8) -> list[str]:
    """Every problem with one invocation's outputs; empty means it passed."""
    if exit_code != 0:
        return [f"{call.label}: exit code {exit_code}"]
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if found != call.files:
        return [f"{call.label}: files {sorted(found ^ call.files)} missing or unexpected"]
    manifest = json.loads((out_dir / "plots.json").read_text())
    listed = {entry["file"] for entry in manifest["plots"]}
    problems = []
    if listed != {c.name for c in call.csvs}:
        problems.append(f"{call.label}: plots.json lists {sorted(listed)}")
    flags = _CONVERGED.findall((out_dir / "summary.yaml").read_text())
    if flags != ["true"] * call.fits:
        problems.append(f"{call.label}: summary converged flags {flags}, want {call.fits} x true")
    for spec in call.csvs:
        problems.extend(check_csv(out_dir / spec.name, spec, rng, k))
    return problems
