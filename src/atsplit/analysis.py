"""Lorentzian peak fitting and dark-state metrics.

The fitter is variable projection (Golub & Pereyra, SIAM J. Numer. Anal.
10, 1973): the amplitudes and the shared offset are solved exactly at each
step, and only the centers and widths are iterated, from one start.  It is
self-contained, so its convergence flag has a precise meaning (the last
step reached roundoff) that a black-box optimizer does not expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateData
from .model import min_fit_points
from .solver import check_density_matrix

_MAX_ITERATIONS = 500
#: Damped steps hand over to Gauss-Newton below this, relative: nearer the
#: minimum the cost is flat to roundoff and cannot choose between steps.
_HANDOVER = math.sqrt(np.finfo(float).eps)
#: A Gauss-Newton step below this, relative, is roundoff: the finish stops.
_ROUNDOFF = 4.0 * np.finfo(float).eps
#: A fit has converged when its last proposed Gauss-Newton step is below this.
_REL_STEP_TOL = 1e-10
#: Data whose y range is below this are flat: nothing to fit.  Roundoff on a
#: line relaxed to its ground state stays far below it (about 1e-12).
_FLAT_LIMIT = 1e-9
#: A fitted amplitude above this many times the y range is no peak in the data
#: (wide peaks over a canceling offset); the benchmark's fits reach 1.22.
_AMPLITUDE_LIMIT = 100.0


# ---------------------------------------------------------------------------
# Lineshape models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LorentzianModel:
    """Single Lorentzian peak: amplitude*(w/2)^2/((x-c)^2+(w/2)^2).

    Evaluation at the center equals amplitude and the half-amplitude
    points sit exactly at center +- fwhm/2; (fwhm/2)**2 must be finite
    and nonzero, or the model could not be evaluated.
    """

    center: float
    fwhm: float
    amplitude: float

    def __post_init__(self):
        half = self.fwhm / 2.0
        if not (half > 0.0 and 0.0 < half * half < math.inf):  # NaN fails too
            raise ValueError(f"fwhm must be > 0 with finite nonzero (fwhm/2)**2, got {self.fwhm!r}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        half_sq = (self.fwhm / 2.0) ** 2
        with np.errstate(over="ignore"):  # inf far off the grid, where the value is 0
            distance_sq = (x - self.center) ** 2
        return self.amplitude * half_sq / (distance_sq + half_sq)


@dataclass(frozen=True)
class PeakFit:
    """Result of a one- or two-peak fit: ``peaks`` sorted by center, the one
    fitted ``offset`` under them all, and convergence diagnostics."""

    peaks: tuple[LorentzianModel, ...]
    offset: float
    residual_rms: float
    converged: bool

    def __post_init__(self):
        centers = [p.center for p in self.peaks]
        if not all(a < b for a, b in zip(centers, centers[1:])):
            raise ValueError(f"peak centers {centers} must be strictly increasing")
        if self.residual_rms < 0.0:
            raise ValueError("residual_rms must be >= 0")


class DarkStateOverlap(NamedTuple):
    overlap: float | np.ndarray   # <D|rho|D>
    fidelity: float | np.ndarray  # sqrt(overlap)


# ---------------------------------------------------------------------------
# Variable projection machinery
# ---------------------------------------------------------------------------

def _projection(x: np.ndarray, y: np.ndarray, nonlinear: np.ndarray):
    """Amplitudes and offset solved by QR at the packed (center, fwhm) per
    peak, as the model is linear in them.  Returns them (offset last), the
    residual model - y, and Kaufman's Jacobian of the residual in the centers
    and widths: the model's, at the solved amplitudes, projected off the
    basis (BIT 15, 1975).  The model is even in each width, so widths may
    wander negative and are normalized to |w| at the end."""
    half = nonlinear[1::2] / 2.0
    u = x[:, None] - nonlinear[0::2]
    denom = u * u + half * half
    q, r = np.linalg.qr(np.column_stack([half * half / denom, np.ones_like(x)]))
    qty = q.T @ y
    linear = np.linalg.solve(r, qty)
    slope = linear[:-1] / (denom * denom)
    jac = np.empty((x.size, nonlinear.size))
    jac[:, 0::2] = 2.0 * slope * half * half * u
    jac[:, 1::2] = slope * half * u * u
    return linear, q @ qty - y, jac - q @ (q.T @ jac)


def _damped_steps(x, y, nonlinear):
    """Damped least squares (Levenberg-Marquardt) on the centers and widths,
    with Kaufman's Jacobian: a step is taken if it does not raise the cost,
    until a proposed step falls below ``_HANDOVER`` relative.  Returns the
    centers and widths, their ``_projection``, and whether that happened
    within the iteration cap."""
    projection = _projection(x, y, nonlinear)
    cost = 0.5 * float(projection[1] @ projection[1])
    lam = 1e-3
    for _ in range(_MAX_ITERATIONS):
        _, residual, jac = projection
        normal = jac.T @ jac
        damped = normal + lam * np.diag(np.maximum(np.diag(normal), 1e-30))
        try:
            step = np.linalg.solve(damped, -(jac.T @ residual))
            trial = _projection(x, y, nonlinear + step)
        except np.linalg.LinAlgError:
            lam = min(lam * 10.0, 1e14)
            continue
        small = np.linalg.norm(step) < _HANDOVER * max(np.linalg.norm(nonlinear), 1e-300)
        cost_t = 0.5 * float(trial[1] @ trial[1])
        if cost_t <= cost:
            nonlinear, projection, cost = nonlinear + step, trial, cost_t
            lam = max(lam / 3.0, 1e-14)
        else:
            lam = min(lam * 2.0, 1e14)
        if small:
            return nonlinear, projection, True
    return nonlinear, projection, False


def _variable_projection(x, y, start):
    """Fit the centers and widths from one start by ``_damped_steps``, then
    finish with undamped Gauss-Newton steps by QR, with no cost comparison,
    while each is above ``_ROUNDOFF`` and shorter than the one two before
    (with a large residual the steps can alternate in length).
    Returns (centers and widths, amplitudes and offset, cost, converged);
    converged means that the last step proposed is below 1e-10 relative."""
    nonlinear, (linear, residual, jac), handed_over = _damped_steps(x, y, start)
    sizes = [math.inf, math.inf]
    for _ in range(_MAX_ITERATIONS if handed_over else 0):
        try:
            q, r = np.linalg.qr(jac)
            step = np.linalg.solve(r, -(q.T @ residual))
            sizes.append(float(np.linalg.norm(step)))
            if not sizes[-1] < sizes[-3] or sizes[-1] < _ROUNDOFF * np.linalg.norm(nonlinear):
                break  # NaN stops too
            linear, residual, jac = _projection(x, y, nonlinear + step)
        except np.linalg.LinAlgError:
            break
        nonlinear = nonlinear + step
    converged = sizes[-1] < _REL_STEP_TOL * max(np.linalg.norm(nonlinear), 1e-300)
    return nonlinear, linear, 0.5 * float(residual @ residual), converged


def _local_maxima(y: np.ndarray) -> list[int]:
    """Interior indices that top both neighbors, tallest first (ties in index order)."""
    left, mid, right = y[:-2], y[1:-1], y[2:]
    idx = np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right))) + 1
    return idx[np.argsort(-y[idx], kind="stable")].tolist()


def _halfmax_crossings(x, y, j, offset) -> tuple[float, float]:
    """Abscissas of the first samples either side of index j at or below half
    the bump's height above offset, or of the grid's ends."""
    half = offset + 0.5 * (y[j] - offset)
    lo = j
    while lo > 0 and y[lo] > half:
        lo -= 1
    hi = j
    while hi < y.size - 1 and y[hi] > half:
        hi += 1
    return float(x[lo]), float(x[hi])


def _initial_guess(x, y, n_peaks) -> np.ndarray:
    """(center, fwhm) per peak, from the data: the tallest local maximum and
    its half-max width, and for a doublet the tallest other maximum farther
    than half that width from it, at its own half-max width.  With no such
    maximum the bump is one merged doublet, split into two peaks of half its
    width a quarter width either side of the midpoint of its half-max
    crossings (its tallest maximum may sit on one shoulder)."""
    offset = float(np.min(y))
    first, *others = _local_maxima(y) or [int(np.argmax(y))]
    lo, hi = _halfmax_crossings(x, y, first, offset)
    if n_peaks == 1:
        return np.array([x[first], hi - lo])
    second = next((j for j in others if abs(x[j] - x[first]) > (hi - lo) / 2.0), None)
    if second is None:
        mid, half = 0.5 * (lo + hi), (hi - lo) / 2.0
        return np.array([mid - half / 2.0, half, mid + half / 2.0, half])
    lo_2, hi_2 = _halfmax_crossings(x, y, second, offset)
    return np.array(sorted([(x[first], hi - lo), (x[second], hi_2 - lo_2)])).ravel()


def fit_peaks(points: Sequence[tuple[float, float]] | np.ndarray, n_peaks: int) -> PeakFit:
    """Nonlinear least-squares fit of one or two Lorentzians to (x, y) data.

    The model is a shared constant offset plus ``n_peaks`` Lorentzians.  It
    is fitted by variable projection (``_variable_projection``) from one
    start taken from the data (``_initial_guess``): the tallest local maxima
    and their half-max widths, or a merged bump split in two.  The
    amplitudes and the offset are solved exactly at every step, so they need
    no start.

    The returned object carries a ``converged`` flag: the finish's last step
    is below 1e-10 relative.  When the iteration cap is reached first, the
    best parameters so far are returned with ``converged=False``.  Data with
    a y range below 1e-9, or whose sum of squares is not finite, raise
    DegenerateData, and so does a fit with a negative amplitude, an
    amplitude above 100 times the data's y range, or a width
    ``LorentzianModel`` rejects: the data hold no peak of the kind fitted.
    """
    if n_peaks not in (1, 2):
        raise ValueError(f"n_peaks must be 1 or 2, got {n_peaks}")
    data = np.asarray(points, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("points must be a sequence of (x, y) pairs")
    x, y = data[:, 0], data[:, 1]

    least = min_fit_points(n_peaks)
    if x.size < least:
        raise ValueError(f"need at least {least} points for a {n_peaks}-peak fit, got {x.size}")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("x values must be strictly increasing")
    y_range = float(np.max(y) - np.min(y))
    if y_range < _FLAT_LIMIT:
        raise DegenerateData(f"y range below {_FLAT_LIMIT:g}; nothing to fit")
    with np.errstate(over="ignore"):  # the fit's cost and steps would leave the float range
        if not math.isfinite(y @ y):
            raise DegenerateData("sum of squared y values is not finite; too large to fit")

    nonlinear, linear, cost, converged = _variable_projection(x, y, _initial_guess(x, y, n_peaks))
    amplitudes, offset = linear[:-1], float(linear[-1])
    if not np.all(amplitudes >= 0.0):  # NaN fails too
        raise DegenerateData(f"fitted amplitude {min(amplitudes):.6g} < 0; no peak to fit")
    if amplitudes.max() > _AMPLITUDE_LIMIT * y_range:
        raise DegenerateData(f"fitted amplitude {amplitudes.max():.6g} exceeds {_AMPLITUDE_LIMIT:g}"
                             f" times the y range {y_range:.6g}; no peak to fit")

    try:
        peaks = [
            LorentzianModel(center=float(c), fwhm=abs(float(w)), amplitude=float(a))
            for c, w, a in zip(nonlinear[0::2], nonlinear[1::2], amplitudes)
        ]
    except ValueError as exc:  # a width the model cannot evaluate
        raise DegenerateData(f"fitted peak cannot be evaluated: {exc}") from None
    return PeakFit(tuple(sorted(peaks, key=lambda m: m.center)), offset,
                   math.sqrt(2.0 * cost / x.size), converged)


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
    (n, 3, 3) stack and one angle per state (returns arrays), with
    |D> = cos T |0> - sin T |2>.  The states must pass
    ``check_density_matrix``; the overlap <D|rho|D> is then computed once,
    directly, and clipped to [0, 1] against roundoff.  Its expansion
    (cos 2T/2)(rho00 - rho22) - (sin 2T/2)(rho20 + rho02) + (1 - rho11)/2
    differs from it by (tr rho - 1)/2, at most 5e-13 at the check's trace
    tolerance, so it is not computed again.  The reported fidelity is the
    square root of the overlap.
    """
    rho = check_density_matrix(rho)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != rho.shape[:-2]:
        raise ValueError(f"need one angle per state, got {theta.shape} for {rho.shape}")
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    dark = np.stack([cos_t, np.zeros_like(theta), -sin_t], axis=-1)
    direct = (dark[..., None, :] @ rho @ dark[..., :, None])[..., 0, 0].real
    overlap = np.clip(direct, 0.0, 1.0)
    if rho.ndim == 2:
        overlap = float(overlap)
        return DarkStateOverlap(overlap=overlap, fidelity=math.sqrt(overlap))
    return DarkStateOverlap(overlap=overlap, fidelity=np.sqrt(overlap))
