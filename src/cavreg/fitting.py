"""Least-squares fitters used by the experiment harness.

Both fitters are dependency-free: ordinary least squares in closed form, and
a saturating-exponential fit that solves the amplitude linearly for each
trial decay time, locates the decay time on a log grid and refines it by
re-gridding the bracket around the best point until it is narrow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# zoom stop: bracket width relative to the decay time
_REL_TOL = 1e-9
# fewest (t, p) points a saturating-exponential fit accepts
MIN_FIT_POINTS = 5


@dataclass(frozen=True)
class LinearFit:
    intercept: float
    slope: float
    intercept_stderr: float
    slope_stderr: float


def fit_linear(xs, ys) -> LinearFit:
    """Ordinary least squares y = intercept + slope*x with standard errors."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    if n < 3 or len(ys) != n:
        raise ConfigurationError("linear fit needs at least 3 (x, y) points")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ConfigurationError("linear fit needs finite (x, y) points")
    sxx = float(((xs - xs.mean()) ** 2).sum())
    if sxx == 0.0:
        raise ConfigurationError("degenerate x-range in linear fit")
    slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum() / sxx)
    intercept = float(ys.mean() - slope * xs.mean())
    resid = ys - intercept - slope * xs
    s2 = float((resid**2).sum()) / (n - 2)
    slope_se = math.sqrt(s2 / sxx)
    intercept_se = math.sqrt(s2 * (1.0 / n + xs.mean() ** 2 / sxx))
    return LinearFit(intercept, slope, intercept_se, slope_se)


@dataclass(frozen=True)
class SaturatingExpFit:
    """A saturating-exponential fit as `.meta.json` records it."""

    tau_ms: float  # the fitted curve reaches p_inf*(1-1/e) at t = tau_ms
    p_inf: float
    low_confidence: bool  # not converged, or the latest point below p_inf*(1-1/e)
    converged: bool
    note: str
    tau_stderr: float
    p_inf_stderr: float


def _amplitudes(ts: np.ndarray, ps: np.ndarray, taus: np.ndarray, p_inf_max: float):
    """(p_inf, rss, basis) for each decay time of taus, one row per tau: the
    least-squares amplitude clamped to [0, p_inf_max], 0 where the basis
    vanishes, its residual sum of squares and its basis 1 - exp(-t/tau)."""
    basis = 1.0 - np.exp(-ts / taus[:, None])
    denom = (basis * basis).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_inf = np.clip((ps * basis).sum(axis=1) / denom, 0.0, p_inf_max)
    p_inf = np.where(denom == 0.0, 0.0, p_inf)
    return p_inf, ((ps - p_inf[:, None] * basis) ** 2).sum(axis=1), basis


def fit_saturating_exponential(ts, ps, *, p_inf_max: float = 1.0) -> SaturatingExpFit:
    """Fit p(t) = p_inf * (1 - exp(-t/tau)) by least squares.

    For each candidate tau the amplitude has a closed-form least-squares
    solution (clamped to [0, p_inf_max]); tau is located on a log-spaced grid
    and refined by re-gridding the bracket around the best point.  A fit
    whose optimum sticks to the grid boundary (its stderrs nan), or data
    with no rise at all, is returned flagged rather than raising.
    """
    ts = np.asarray(ts, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if len(ts) < MIN_FIT_POINTS or len(ts) != len(ps):
        raise ConfigurationError(f"saturating-exponential fit needs >= {MIN_FIT_POINTS} points")
    if not (np.isfinite(ts).all() and np.isfinite(ps).all()):  # an inf time never ends the zoom
        raise ConfigurationError("saturating-exponential fit needs finite (t, p) points")
    if np.any((ps < 0) | (ps > 1)):
        raise ConfigurationError("probabilities must lie in [0, 1]")
    if np.any(ts <= 0):
        raise ConfigurationError("times must be positive")
    if ts.min() == ts.max():  # one time fits every tau equally well
        raise ConfigurationError("saturating-exponential fit needs >= 2 distinct times")

    if float(ps.max()) == 0.0:
        return SaturatingExpFit(
            math.nan, 0.0, True, False, "no rise: tau unidentifiable", math.nan, 0.0
        )

    t_lo = float(ts.min()) / 100.0
    t_hi = float(ts.max()) * 100.0
    grid = np.logspace(math.log10(t_lo), math.log10(t_hi), 200)
    best = int(np.argmin(_amplitudes(ts, ps, grid, p_inf_max)[1]))
    at_edge = best in (0, grid.size - 1)
    # zoom: each pass re-grids the bracket around the best point with as many
    # points, which shrinks it about 100-fold, until it is narrow
    while True:
        a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        if b - a <= _REL_TOL * (a + b):
            break
        grid = np.linspace(a, b, grid.size)
        best = int(np.argmin(_amplitudes(ts, ps, grid, p_inf_max)[1]))
    tau = float(grid[best])
    p_inf, rss, basis = _amplitudes(ts, ps, np.array([tau]), p_inf_max)
    p_inf, rss, basis = float(p_inf[0]), float(rss[0]), basis[0]

    # linearized standard errors at the optimum
    d_pinf = basis
    d_tau = -p_inf * ts / tau**2 * np.exp(-ts / tau)
    jac = np.column_stack([d_pinf, d_tau])
    dof = max(len(ts) - 2, 1)
    sigma2 = rss / dof
    note = ""
    try:
        cov = sigma2 * np.linalg.inv(jac.T @ jac)
        # a variance of -0.0 or below reads +0.0; max(v, 0.0) would keep -0.0
        p_inf_se, tau_se = (0.0 if v <= 0 else math.sqrt(v) for v in np.diag(cov))
    except np.linalg.LinAlgError:
        p_inf_se = tau_se = math.nan
        note = "singular Jacobian: parameter errors unavailable"

    converged = not at_edge
    if at_edge:  # a boundary optimum fixes neither parameter, however small its residuals
        p_inf_se = tau_se = math.nan
        note = (note + "; " if note else "") + (
            f"optimum at tau grid boundary ({tau:.3g} ms): saturation not resolved"
        )
    if p_inf == p_inf_max:
        note = (note + "; " if note else "") + "amplitude at its upper bound"
    # plateau not reached by the latest time -> extrapolated, low confidence
    low_confidence = bool(not converged or ps[ts == ts.max()].mean() < (1 - 1 / math.e) * p_inf)
    return SaturatingExpFit(tau, p_inf, low_confidence, converged, note, tau_se, p_inf_se)
