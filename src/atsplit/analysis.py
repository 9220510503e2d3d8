"""Lorentzian peak fitting and dark-state metrics.

The fitter is a small damped least-squares (Levenberg-Marquardt) loop
with the analytic Jacobian of the n-peak Lorentzian-plus-shared-offset
model.  It is deliberately self-contained: the convergence flag has a
precise meaning (a proposed step below 1e-10 relative to the parameters,
taken if it does not raise the cost) that a black-box optimizer does not
expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateData, NonPhysicalResult
from .model import check_density_matrix

_MAX_ITERATIONS = 500
_REL_STEP_TOL = 1e-10
#: Data whose y range is below this are flat: nothing to fit.  Roundoff on a
#: line relaxed to its ground state stays far below it (about 1e-12).
_FLAT_LIMIT = 1e-9


# ---------------------------------------------------------------------------
# Lineshape models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LorentzianModel:
    """Single Lorentzian peak: offset + amplitude*(w/2)^2/((x-c)^2+(w/2)^2).

    Evaluation at the center equals offset + amplitude and the
    half-amplitude points sit exactly at center +- fwhm/2; (fwhm/2)**2
    must be finite and nonzero, or the model could not be evaluated.
    """

    center: float
    fwhm: float
    amplitude: float
    offset: float = 0.0

    def __post_init__(self):
        half = self.fwhm / 2.0
        if not (half > 0.0 and 0.0 < half * half < math.inf):  # NaN fails too
            raise ValueError(f"fwhm must be > 0 with finite nonzero (fwhm/2)**2, got {self.fwhm!r}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        half_sq = (self.fwhm / 2.0) ** 2
        with np.errstate(over="ignore"):  # inf far off the grid, where the value is the offset
            distance_sq = (x - self.center) ** 2
        return self.offset + self.amplitude * half_sq / (distance_sq + half_sq)


@dataclass(frozen=True)
class PeakFit:
    """Result of a one- or two-peak fit: ``peaks`` sorted by center, all with
    the one fitted offset, and convergence diagnostics.

    For a doublet, the midpoint of the two centers is the probe-detuning
    shift diagnostic: a symmetric three-level doublet has midpoint zero.
    """

    peaks: tuple[LorentzianModel, ...]
    residual_rms: float
    converged: bool

    def __post_init__(self):
        centers = [p.center for p in self.peaks]
        if not all(a < b for a, b in zip(centers, centers[1:])):
            raise ValueError(f"peak centers {centers} must be strictly increasing")
        if len({p.offset for p in self.peaks}) > 1:
            raise ValueError("peaks must share one offset")
        if self.residual_rms < 0.0:
            raise ValueError("residual_rms must be >= 0")


class DarkStateOverlap(NamedTuple):
    overlap: float | np.ndarray   # <D|rho|D>
    fidelity: float | np.ndarray  # sqrt(overlap)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt machinery
# ---------------------------------------------------------------------------

def _model_and_jacobian(x: np.ndarray, params: np.ndarray, n_peaks: int):
    """Evaluate the n-peak model and its Jacobian at packed parameters.

    Packing is (c, w, a) per peak followed by one shared offset.  The
    model is even in each w, so widths may wander negative during the
    iteration and are normalized to |w| at the end.
    """
    y = np.full_like(x, params[-1])
    jac = np.zeros((x.size, params.size))
    jac[:, -1] = 1.0
    for k in range(n_peaks):
        c, w, a = params[3 * k : 3 * k + 3]
        u = x - c
        half_sq = (w / 2.0) ** 2
        denom = u * u + half_sq
        shape = half_sq / denom
        y += a * shape
        jac[:, 3 * k] = 2.0 * a * half_sq * u / (denom * denom)
        jac[:, 3 * k + 1] = a * (w / 2.0) * u * u / (denom * denom)
        jac[:, 3 * k + 2] = shape
    return y, jac


def _levenberg_marquardt(x, y, p0, n_peaks):
    """Damped least squares from one start; returns (params, cost, converged).

    Converged means a proposed step below 1e-10 relative to the parameters;
    that step is taken if it does not raise the cost, and the loop stops."""
    p = np.asarray(p0, dtype=float).copy()
    fit, jac = _model_and_jacobian(x, p, n_peaks)
    residual = fit - y
    cost = 0.5 * float(residual @ residual)
    lam = 1e-3

    for _ in range(_MAX_ITERATIONS):
        grad = jac.T @ residual
        normal = jac.T @ jac
        damped = normal + lam * np.diag(np.maximum(np.diag(normal), 1e-30))
        try:
            step = np.linalg.solve(damped, -grad)
        except np.linalg.LinAlgError:
            lam = min(lam * 10.0, 1e14)
            continue

        small = np.linalg.norm(step) < _REL_STEP_TOL * max(np.linalg.norm(p), 1e-300)
        trial = p + step
        fit_t, jac_t = _model_and_jacobian(x, trial, n_peaks)
        residual_t = fit_t - y
        cost_t = 0.5 * float(residual_t @ residual_t)

        if cost_t <= cost:
            p, fit, jac, residual, cost = trial, fit_t, jac_t, residual_t, cost_t
            lam = max(lam / 3.0, 1e-14)
        else:
            lam = min(lam * 2.0, 1e14)
        if small:
            return p, cost, True

    return p, cost, False


def _local_maxima(y: np.ndarray) -> list[int]:
    """Interior indices that top both neighbors, tallest first."""
    idx = [
        j
        for j in range(1, y.size - 1)
        if y[j] >= y[j - 1] and y[j] >= y[j + 1] and (y[j] > y[j - 1] or y[j] > y[j + 1])
    ]
    return sorted(idx, key=lambda j: y[j], reverse=True)


def _halfmax_width(x, y, j, offset) -> float:
    """Full width of the bump at index j at half its height above offset."""
    half = offset + 0.5 * (y[j] - offset)
    lo = j
    while lo > 0 and y[lo] > half:
        lo -= 1
    hi = j
    while hi < y.size - 1 and y[hi] > half:
        hi += 1
    width = x[hi] - x[lo]
    if width <= 0.0:
        width = (x[-1] - x[0]) / 6.0
    return float(width)


def _initial_guess(x, y, n_peaks) -> np.ndarray:
    offset = float(np.min(y))
    maxima = _local_maxima(y)
    if not maxima:
        maxima = [int(np.argmax(y))]

    peaks = [maxima[0]]
    if n_peaks == 2:
        first_width = _halfmax_width(x, y, maxima[0], offset)
        for j in maxima[1:]:
            if abs(x[j] - x[peaks[0]]) > first_width / 2.0:
                peaks.append(j)
                break
        if len(peaks) == 1:
            # Merged doublet: split the single bump symmetrically.
            j = peaks[0]
            width = _halfmax_width(x, y, j, offset)
            params = [
                x[j] - width / 4.0, width / 2.0, y[j] - offset,
                x[j] + width / 4.0, width / 2.0, y[j] - offset,
                offset,
            ]
            return np.array(params)

    params = []
    for j in sorted(peaks, key=lambda j: x[j]):
        params.extend([x[j], _halfmax_width(x, y, j, offset), y[j] - offset])
    params.append(offset)
    return np.array(params)


def _perturbed_starts(p0: np.ndarray, n_peaks: int) -> list[np.ndarray]:
    """The detected start plus two deterministic +-10% variations."""
    starts = [p0]
    for sign in (+1.0, -1.0):
        p = p0.copy()
        for k in range(n_peaks):
            width = abs(p0[3 * k + 1])
            p[3 * k] += sign * 0.1 * width
            p[3 * k + 1] *= 1.0 + sign * 0.1
            p[3 * k + 2] *= 1.0 - sign * 0.1
        starts.append(p)
    return starts


def min_fit_points(n_peaks: int) -> int:
    """Fewest points ``fit_peaks`` takes: five per parameter (three per peak and the offset)."""
    return 5 * (3 * n_peaks + 1)


def fit_peaks(
    points: Sequence[tuple[float, float]] | np.ndarray,
    n_peaks: int,
    init: Sequence[float] | None = None,
) -> PeakFit:
    """Nonlinear least-squares fit of one or two Lorentzians to (x, y) data.

    The model is a shared constant offset plus ``n_peaks`` Lorentzians.
    When ``init`` is omitted, starting values come from the tallest local
    maxima and their half-max widths; three deterministic starts are run
    and the best kept.  ``init`` is a flat sequence (center, fwhm,
    amplitude) per peak plus the offset.

    The returned object carries a ``converged`` flag; when the iteration
    cap is reached the best parameters so far are returned with
    ``converged=False``.  Data with a y range below 1e-9, or whose sum of
    squares is not finite, raise DegenerateData, and so does a best fit
    with a negative amplitude or a width ``LorentzianModel`` rejects: the
    data hold no peak of the kind fitted.
    """
    if n_peaks not in (1, 2):
        raise ValueError(f"n_peaks must be 1 or 2, got {n_peaks}")
    data = np.asarray(points, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("points must be a sequence of (x, y) pairs")
    x, y = data[:, 0], data[:, 1]

    n_params, least = 3 * n_peaks + 1, min_fit_points(n_peaks)
    if x.size < least:
        raise ValueError(f"need at least {least} points for a {n_peaks}-peak fit, got {x.size}")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("x values must be strictly increasing")
    if float(np.max(y) - np.min(y)) < _FLAT_LIMIT:
        raise DegenerateData(f"y range below {_FLAT_LIMIT:g}; nothing to fit")
    with np.errstate(over="ignore"):  # the fit's cost and steps would leave the float range
        if not math.isfinite(y @ y):
            raise DegenerateData("sum of squared y values is not finite; too large to fit")

    if init is not None:
        p0 = np.asarray(init, dtype=float)
        if p0.size != n_params:
            raise ValueError(f"init must have {n_params} entries, got {p0.size}")
        starts = _perturbed_starts(p0, n_peaks)
    else:
        starts = _perturbed_starts(_initial_guess(x, y, n_peaks), n_peaks)

    best = None
    for start in starts:
        params, cost, converged = _levenberg_marquardt(x, y, start, n_peaks)
        key = (not converged, cost)
        if best is None or key < best[0]:
            best = (key, params, cost, converged)
    _, params, cost, converged = best
    if not np.all(params[2:-1:3] >= 0.0):  # every amplitude; NaN fails too
        raise DegenerateData(f"fitted amplitude {min(params[2:-1:3]):.6g} < 0; no peak to fit")

    rms = math.sqrt(2.0 * cost / x.size)
    offset = float(params[-1])
    try:
        peaks = [
            LorentzianModel(
                center=float(params[3 * k]),
                fwhm=abs(float(params[3 * k + 1])),
                amplitude=float(params[3 * k + 2]),
                offset=offset,
            )
            for k in range(n_peaks)
        ]
    except ValueError as exc:  # a width the model cannot evaluate
        raise DegenerateData(f"fitted peak cannot be evaluated: {exc}") from None
    peaks.sort(key=lambda m: m.center)
    return PeakFit(peaks=tuple(peaks), residual_rms=rms, converged=converged)


def _parabola_vertex(x, y, j) -> float:
    """Abscissa of the vertex of the parabola through samples j-1, j, j+1."""
    u, v = x[j] - x[j - 1], x[j] - x[j + 1]
    du, dv = y[j] - y[j + 1], y[j] - y[j - 1]
    return float(x[j] - 0.5 * (u * u * du - v * v * dv) / (u * du - v * dv))


def peak_separation(x, y) -> float:
    """Spacing of the two tallest maxima of a sampled doublet, in x units.

    Each of the two tallest interior local maxima is refined to the vertex
    of the parabola through it and its two neighbors.  This is the observed
    peak spacing, which a two-Lorentzian fit underestimates when the
    lineshape is not a sum of Lorentzians.  A slice with fewer than two
    maxima is an unresolved doublet and gives 0.0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    maxima = _local_maxima(y)
    if len(maxima) < 2:
        return 0.0
    a, b = (_parabola_vertex(x, y, j) for j in maxima[:2])
    return abs(b - a)


# ---------------------------------------------------------------------------
# Dark-state metrics
# ---------------------------------------------------------------------------

def dark_state_fidelity(rho: np.ndarray, theta: float | np.ndarray) -> DarkStateOverlap:
    """Dark-state occupation of a density matrix and its square root.

    Takes one 3x3 state and its mixing angle (returns floats) or an
    (n, 3, 3) stack and one angle per state (returns arrays).  The overlap
    <D|rho|D> is computed twice, directly and through its expansion in
    density-matrix elements,
    (cos 2T/2)(rho00 - rho22) - (sin 2T/2)(rho20 + rho02) + (1 - rho11)/2,
    and the two must agree to 1e-12 at every state; a disagreement means
    the input was not a valid density matrix.  The reported fidelity is
    the square root of the overlap.
    """
    rho = check_density_matrix(rho)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != rho.shape[:-2]:
        raise ValueError(f"need one angle per state, got {theta.shape} for {rho.shape}")
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    dark = np.stack([cos_t, np.zeros_like(theta), -sin_t], axis=-1)
    direct = (dark[..., None, :] @ rho @ dark[..., :, None])[..., 0, 0].real
    expansion = (
        0.5 * np.cos(2.0 * theta) * (rho[..., 0, 0].real - rho[..., 2, 2].real)
        - 0.5 * np.sin(2.0 * theta) * (rho[..., 2, 0] + rho[..., 0, 2]).real
        + 0.5 * (1.0 - rho[..., 1, 1].real)
    )
    disagree = ~(np.abs(direct - expansion) <= 1e-12)
    if disagree.any():
        k = int(np.argmax(disagree))
        raise NonPhysicalResult(
            f"dark-state overlap computed two ways disagrees at state {k}: "
            f"{float(direct.flat[k])!r} vs {float(expansion.flat[k])!r}"
        )
    overlap = np.clip(direct, 0.0, 1.0)
    if rho.ndim == 2:
        overlap = float(overlap)
        return DarkStateOverlap(overlap=overlap, fidelity=math.sqrt(overlap))
    return DarkStateOverlap(overlap=overlap, fidelity=np.sqrt(overlap))
