"""Site-selective readout protocol: single-site measurements and sequential
array readout with hiding.

A site measurement is a pair of intervals: the first reads the hyperfine
state (F=2 bright, F=1 dark), the second detects occupation with a repumper
on (any present atom is bright).  Misclassification and loss probabilities
are configuration inputs taken from single-atom calibration at a given
tweezer depth / probe-cavity detuning; they are not derived from atomic
physics here.  Both kernels take the [readout] section whole
(DepumpScalingParams), whose rates is the row as configured: measure_site
applies measurement_rates to it, and no caller does.

During a sequential array readout all atoms except the probed target are
hidden by local light shifts.  A hidden bright atom still depumps with a
small probability per target measurement; hiding power suppresses that rate
down to the background floor set by the trapping light.

Sites never interact, and hidden depump is absorbing and independent per
exposure: k hidden exposures and i idle intervals leave a bright atom bright
with probability (1 - p_hidden)^k (1 - floor)^i, one draw for all of them.
So a readout round measures every site of every trial in one call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, check_finite, check_integers, check_probability, check_sweep
from .photons import PhotonModel, sample_adaptive_interval, sample_full_interval
from .register import F1, F2, VACANT


@dataclass(frozen=True)
class ErrorRates:
    """Per-measurement misclassification and loss probabilities by state."""

    infidelity_f1: float
    loss_f1: float
    infidelity_f2: float
    loss_f2: float

    def __post_init__(self):
        for name, v in vars(self).items():
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} {v!r} is outside [0, 1]")


def measurement_rates(rates: ErrorRates, adaptive: bool, adaptive_loss_factor: float) -> ErrorRates:
    """A calibration row as measure_site applies it: adaptive termination
    divides the bright-state loss by adaptive_loss_factor."""
    check_finite("readout.adaptive_loss_factor", adaptive_loss_factor)
    loss = rates.loss_f2 / adaptive_loss_factor
    if adaptive and loss > 1.0:
        raise ConfigurationError(
            f"adaptive bright-state loss {loss:.3g} = loss_f2 / adaptive_loss_factor exceeds 1"
        )
    return replace(rates, loss_f2=loss) if adaptive else rates


@dataclass(frozen=True)
class HidingModel:
    """Hiding-beam suppression of probe-induced depumping.

    suppression_points_mw are (power_mW, factor) calibration pairs; the factor
    is interpolated log-linearly in power and extrapolated beyond the end
    points, but never below 1: hiding light does not raise the depump rate,
    so the unhidden rate bounds the hidden one even below the first
    calibrated power.  The hidden depump probability never drops below
    background_floor_per_interval, the depumping by the trapping light.
    """

    depump_per_interval_unhidden: float = 0.044
    suppression_points_mw: tuple[tuple[float, float], ...] = ((0.0, 1.0), (0.4, 5.2))
    background_floor_per_interval: float = 0.0008

    def __post_init__(self):
        key, pts = "hiding.suppression_points_mw", sorted(self.suppression_points_mw)
        if not pts or not all(math.isfinite(p) and 1.0 <= f < math.inf for p, f in pts):
            raise ConfigurationError("powers must be finite and factors finite, >= 1", key)
        if pts[0][0] < 0.0:
            raise ConfigurationError(f"suppression power {pts[0][0]} mW is negative", key)
        repeated = [p1 for (p1, _), (p2, _) in zip(pts, pts[1:]) if p1 == p2]
        if repeated:
            raise ConfigurationError(f"suppression power {repeated[0]} mW is calibrated twice", key)
        if any(f2 < f1 for (_, f1), (_, f2) in zip(pts, pts[1:])):
            raise ConfigurationError("suppression must be non-decreasing in power", key)
        unhidden, floor = self.depump_per_interval_unhidden, self.background_floor_per_interval
        check_probability("hiding.depump_per_interval_unhidden", unhidden)
        check_probability("hiding.background_floor_per_interval", floor)
        if floor > unhidden:
            raise ConfigurationError(
                f"hiding.background_floor_per_interval {floor} exceeds "
                f"hiding.depump_per_interval_unhidden {unhidden}"
            )
        object.__setattr__(self, "suppression_points_mw", tuple(pts))


def suppression_factor(model: HidingModel, power_mw: float) -> float:
    """Log-linear interpolation of the suppression factor vs hiding power,
    clamped at 1 from below and infinite past the float range."""
    pts = model.suppression_points_mw
    if len(pts) == 1:
        return pts[0][1]
    # the calibrated segment holding power_mw; the end segments extrapolate
    hi = min(max(bisect.bisect_left([p for p, _ in pts], power_mw), 1), len(pts) - 1)
    (p0, f0), (p1, f1) = pts[hi - 1], pts[hi]
    slope = (math.log(f1) - math.log(f0)) / (p1 - p0)
    try:
        return max(1.0, math.exp(math.log(f0) + slope * (power_mw - p0)))
    except OverflowError:  # the hidden rate is the floor long before this
        return math.inf


def hidden_depump_probability(model: HidingModel, power_mw: float) -> float:
    """Depump probability per target measurement for a hidden bright atom,
    clamped from below by the background floor."""
    check_finite("readout.hiding_power_mw", power_mw, positive=False)
    return max(
        model.background_floor_per_interval,
        model.depump_per_interval_unhidden / suppression_factor(model, power_mw),
    )


@dataclass
class DepumpScalingParams:
    """The [readout] section, which the readout kernels take whole.  Each
    field but the nested `rates`, `photon` and `hiding` is the [readout] key
    of its name; `rates` is the probe's calibration row as configured, and
    measure_site applies it through measurement_rates."""

    sizes: list[int] = field(default_factory=lambda: list(range(1, 11)))
    readout_rounds: int = 4
    hiding_power_mw: float = 2.0
    adaptive_rounds: bool = False
    adaptive_termination: bool = True
    adaptive_loss_factor: float = 4.5
    idle_intervals: int = 0
    rates: ErrorRates = ErrorRates(0.0039, 0.021, 0.008, 0.030)  # the 0.25 mK / 5 MHz row
    photon: PhotonModel = field(default_factory=PhotonModel)
    hiding: HidingModel = field(default_factory=HidingModel)

    def __post_init__(self):
        check_sweep("readout.sizes", self.sizes)
        check_integers("readout.sizes", *self.sizes, least=1)  # a register needs a site
        check_integers("readout.readout_rounds", self.readout_rounds, least=1)
        check_integers("readout.idle_intervals", self.idle_intervals, least=0)
        measurement_rates(self.rates, self.adaptive_termination, self.adaptive_loss_factor)
        hidden_depump_probability(self.hiding, self.hiding_power_mw)


def measure_site(
    codes: np.ndarray, params: DepumpScalingParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Measure the sites of an array of state codes, of any shape, and
    return (inferred, post-measurement state codes) of that shape.  inferred
    is VACANT where the occupation interval read dark, else F2 or F1 by the
    hyperfine interval.

    The state-appropriate infidelity flips the effective emitter for the
    hyperfine interval (misclassification channel).  Loss is applied once per
    measurement as a lump probability keyed by the pre-measurement state,
    from the measurement_rates of params.rates.  Re-preparation is left to
    the caller.  One sampler call draws both intervals, and every draw runs
    over the cells in C order, so an array draws what its ravel() does.
    """
    adaptive = params.adaptive_termination
    rates = measurement_rates(params.rates, adaptive, params.adaptive_loss_factor)
    sample = sample_adaptive_interval if adaptive else sample_full_interval
    # probabilities per state code (vacant, F=1, F=2)
    infidelity = np.array([0.0, rates.infidelity_f1, rates.infidelity_f2])[codes]
    loss = np.array([0.0, rates.loss_f1, rates.loss_f2])[codes]

    flip = rng.random(codes.shape) < infidelity
    effective = np.where(flip, F1 + F2 - codes, codes)
    # repumper on for the occupation interval: any present atom is bright
    occupancy = np.array([VACANT, F2, F2])[codes]
    hyperfine, occupied = sample(np.stack((effective, occupancy)), params.photon, rng).bright
    # present: F=2 if the hyperfine interval read bright, else F=1
    inferred = np.where(occupied, F1 + hyperfine, VACANT)
    post = np.where(rng.random(codes.shape) < loss, VACANT, effective)
    return inferred, post


@dataclass(frozen=True)
class ReadoutRecord:
    """One readout round as (trials, sites) arrays, column j for site j; a
    cell that adaptive_rounds skipped reads VACANT in inferred."""

    measured: np.ndarray  # the trial measured the site in this round
    prepared: np.ndarray  # ground-truth state codes at the site's step
    inferred: np.ndarray  # the state codes read out


def _depump_since_update(codes: np.ndarray, keep: np.ndarray, rng) -> np.ndarray:
    """One uniform per cell: a bright atom stays bright with chance keep, else depumps."""
    return np.where(rng.random(codes.shape) < keep, codes, np.minimum(codes, F1))


def sequential_array_readout(
    register: np.ndarray,
    params: DepumpScalingParams,
    rng: np.random.Generator,
    *,
    re_prepare: str = "bright",
) -> tuple[list[ReadoutRecord], np.ndarray]:
    """Sequentially measure every site, one at a time in index order, for
    params.readout_rounds rounds, and return one record per round and the
    final state codes.

    `register` is an int8 array of state codes of shape (trials, sites)
    whose trials are read out together; it is not modified.

    While a site is probed, every other occupied bright atom independently
    depumps with the hidden_depump_probability of params.hiding at
    params.hiding_power_mw (charged once per site measurement).
    params.idle_intervals adds probe-free intervals per round during which
    waiting atoms depump at the background floor only.  With
    params.adaptive_rounds, sites inferred vacant in the previous round are
    skipped.

    re_prepare: "bright" repumps each present atom to F=2 right after its
    measurement (bright-state characterization), "none" leaves the
    post-measurement state.

    A round draws one depump uniform per (trial, site) and makes one
    measure_site call over the whole array, whose skipped cells throw their
    draws away and keep their state; one uniform per (trial, site) applies
    the depump left after the last round.
    """
    if register.ndim != 2:
        raise ConfigurationError(f"register must be a (trials, sites) array, not {register.shape}")
    if re_prepare not in ("bright", "none"):
        raise ConfigurationError(f"unknown re_prepare policy {re_prepare!r}")

    n = register.shape[1]
    states = register
    hiding = params.hiding
    decay = (1.0 - hidden_depump_probability(hiding, params.hiding_power_mw)) ** np.arange(n + 1)
    idle_keep = (1.0 - hiding.background_floor_per_interval) ** params.idle_intervals
    # chance that a bright atom is still bright, from its last update to now
    keep = np.ones((1, n))
    measured = np.ones((1, n), dtype=bool)  # the same for every trial until adaptive rounds skip
    records: list[ReadoutRecord] = []

    for _ in range(params.readout_rounds):
        # hidden exposures of each site in this round, before its step and in all
        before = np.cumsum(measured, axis=1) - measured
        total = measured.sum(axis=1, keepdims=True)
        prepared = _depump_since_update(states, keep * decay[before], rng)
        found, post = measure_site(prepared, params, rng)
        if re_prepare == "bright":
            post = np.where(post != VACANT, F2, post)
        states = np.where(measured, post, prepared)
        inferred = np.where(measured, found, VACANT)
        records.append(ReadoutRecord(np.broadcast_to(measured, prepared.shape), prepared, inferred))
        keep = decay[total - before - measured] * idle_keep
        if params.adaptive_rounds:
            measured = inferred != VACANT
    return records, _depump_since_update(states, keep, rng)
