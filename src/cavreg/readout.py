"""Site-selective readout protocol: single-site measurements and sequential
array readout with hiding.

A site measurement is a pair of intervals: the first reads the hyperfine
state (F=2 bright, F=1 dark), the second detects occupation with a repumper
on (any present atom is bright).  Misclassification and loss probabilities
are configuration inputs taken from single-atom calibration at a given
tweezer depth / probe-cavity detuning; they are not derived from atomic
physics here.

During a sequential array readout all atoms except the probed target are
hidden by local light shifts.  A hidden bright atom still depumps with a
small probability per target measurement; hiding power suppresses that rate
down to the background floor set by the trapping light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .photons import (
    IntervalOutcome,
    PhotonModel,
    sample_adaptive_interval,
    sample_full_interval,
)
from .register import (
    CODE_STATES, F1_CODE, F2_CODE, VACANT_CODE, Register, SiteState, as_codes, state_codes
)


@dataclass(frozen=True)
class ProbeConfig:
    """Tweezer depth and probe-cavity detuning selecting a calibration row."""

    tweezer_depth_mk: float = 0.25
    detuning_pc_mhz: float = -5.0

    def __post_init__(self):
        if self.tweezer_depth_mk <= 0:
            raise ConfigurationError("tweezer depth must be positive")

    def key(self) -> tuple[float, float]:
        # calibration rows are quoted by depth and |detuning|; sign conventions
        # vary between the table header and the running text
        return (round(self.tweezer_depth_mk, 6), round(abs(self.detuning_pc_mhz), 6))


@dataclass(frozen=True)
class ErrorRates:
    """Per-measurement misclassification and loss probabilities by state."""

    infidelity_f1: float
    loss_f1: float
    infidelity_f2: float
    loss_f2: float

    def __post_init__(self):
        for v in (self.infidelity_f1, self.loss_f1, self.infidelity_f2, self.loss_f2):
            if not (0.0 <= v <= 1.0):
                raise ConfigurationError("error rates must be probabilities")


# Single-atom calibration: depth (mK), |probe-cavity detuning| (MHz) ->
# (F1 infidelity, F1 loss, F2 infidelity, F2 loss).
DEFAULT_ERROR_ROWS: dict[tuple[float, float], ErrorRates] = {
    (0.20, 3.0): ErrorRates(0.0017, 0.030, 0.003, 0.038),
    (0.25, 5.0): ErrorRates(0.0039, 0.021, 0.008, 0.030),
    (0.25, 11.0): ErrorRates(0.0030, 0.007, 0.026, 0.011),
    (0.25, 17.0): ErrorRates(0.0036, 0.003, 0.039, 0.006),
}


@dataclass
class MeasurementErrorTable:
    rows: dict[tuple[float, float], ErrorRates] = field(
        default_factory=lambda: dict(DEFAULT_ERROR_ROWS)
    )

    def lookup(self, probe: ProbeConfig) -> ErrorRates:
        try:
            return self.rows[probe.key()]
        except KeyError:
            raise ConfigurationError(
                f"no calibration row for depth {probe.tweezer_depth_mk} mK / "
                f"detuning {probe.detuning_pc_mhz} MHz"
            ) from None


@dataclass(frozen=True)
class HidingModel:
    """Hiding-beam suppression of probe-induced depumping, plus the
    light-shift beam profile.

    suppression_points are (power_mW, factor) calibration pairs; the factor
    is interpolated log-linearly in power and extrapolated beyond the last
    point.  The hidden depump probability never drops below the background
    floor from the trapping light.
    """

    depump_per_interval_unhidden: float = 0.044
    suppression_points: tuple[tuple[float, float], ...] = ((0.0, 1.0), (0.4, 5.2))
    background_floor: float = 0.0008
    beam_waist_um: float = 4.0
    shift_slope_mhz_per_uw: float = 1.0
    residual_at_10um: float = 0.01

    def __post_init__(self):
        pts = sorted(self.suppression_points)
        if not pts or any(f < 1.0 for _, f in pts):
            raise ConfigurationError("suppression factors must be >= 1")
        if any(f2 < f1 for (_, f1), (_, f2) in zip(pts, pts[1:])):
            raise ConfigurationError("suppression must be non-decreasing in power")
        if self.background_floor > self.depump_per_interval_unhidden:
            raise ConfigurationError("background floor exceeds the unhidden rate")
        object.__setattr__(self, "suppression_points", tuple(pts))


def suppression_factor(model: HidingModel, power_mw: float) -> float:
    """Log-linear interpolation of the suppression factor vs hiding power."""
    pts = model.suppression_points
    powers = [p for p, _ in pts]
    logs = [math.log(f) for _, f in pts]
    if len(pts) == 1:
        return math.exp(logs[0])
    if power_mw <= powers[0]:
        lo, hi = 0, 1
    elif power_mw >= powers[-1]:
        lo, hi = len(pts) - 2, len(pts) - 1
    else:
        hi = next(i for i, p in enumerate(powers) if p >= power_mw)
        lo = hi - 1
    slope = (logs[hi] - logs[lo]) / (powers[hi] - powers[lo])
    return math.exp(logs[lo] + slope * (power_mw - powers[lo]))


def hidden_depump_probability(model: HidingModel, power_mw: float) -> float:
    """Depump probability per target measurement for a hidden bright atom,
    clamped from below by the background floor."""
    if power_mw < 0:
        raise ConfigurationError("hiding power must be non-negative")
    return max(
        model.background_floor,
        model.depump_per_interval_unhidden / suppression_factor(model, power_mw),
    )


def light_shift_profile(model: HidingModel, power_uw: float, r_um: float) -> float:
    """Light shift in MHz at distance r from the beam center.

    Gaussian profile plus an aberration pedestal, normalized so the center
    value is exactly power * slope and the value at 10 um is exactly
    residual_at_10um times the center value.
    """
    if power_uw < 0 or r_um < 0:
        raise ConfigurationError("power and radius must be non-negative")
    w = model.beam_waist_um
    gauss_at_10 = math.exp(-2.0 * 10.0**2 / w**2)
    pedestal = (model.residual_at_10um - gauss_at_10) / (1.0 - model.residual_at_10um)
    shape = (math.exp(-2.0 * r_um**2 / w**2) + pedestal) / (1.0 + pedestal)
    return power_uw * model.shift_slope_mhz_per_uw * shape


@dataclass(frozen=True)
class SiteMeasurement:
    """Outcome of one hyperfine + occupation measurement pair: scalars for
    one site, arrays over the trial axis for an array of state codes."""

    hyperfine: IntervalOutcome
    occupation: IntervalOutcome
    inferred: SiteState  # None if occupation read dark, else F2/F1 by hyperfine

    def item(self, trial: int = 0) -> "SiteMeasurement":
        """The scalar measurement of one trial of an array measurement."""
        return SiteMeasurement(
            self.hyperfine.item(trial),
            self.occupation.item(trial),
            CODE_STATES[self.inferred[trial]],
        )


def measure_site(
    site: SiteState | np.ndarray,
    probe: ProbeConfig,
    table: MeasurementErrorTable,
    photon: PhotonModel,
    rng: np.random.Generator,
    *,
    adaptive: bool = True,
    adaptive_loss_factor: float = 4.5,
) -> tuple[SiteMeasurement, SiteState | np.ndarray]:
    """Measure one site and return (record, post-measurement site state).

    `site` is one site state, or an array of state codes with one entry per
    trial; the record and the post state then hold arrays of codes.

    The state-appropriate infidelity flips the effective emitter for the
    hyperfine interval (misclassification channel).  Loss is applied once per
    measurement as a lump probability keyed by the pre-measurement state;
    adaptive termination divides the bright-state loss by
    adaptive_loss_factor.  Re-preparation is left to the caller.
    """
    sample = sample_adaptive_interval if adaptive else sample_full_interval
    codes = as_codes(site)
    rates = table.lookup(probe)
    loss_f2 = rates.loss_f2 / adaptive_loss_factor if adaptive else rates.loss_f2
    # probabilities per state code (vacant, F=1, F=2)
    infidelity = np.array([0.0, rates.infidelity_f1, rates.infidelity_f2])[codes]
    loss = np.array([0.0, rates.loss_f1, loss_f2])[codes]

    flip = rng.random(codes.shape) < infidelity
    effective = np.where(flip, F1_CODE + F2_CODE - codes, codes)
    hyperfine = sample(effective, photon, rng)
    # repumper on: any present atom is bright
    occupation = sample(np.array([VACANT_CODE, F2_CODE, F2_CODE])[codes], photon, rng)
    # present: F=2 if the hyperfine interval read bright, else F=1
    inferred = np.where(occupation.bright, F1_CODE + hyperfine.bright, VACANT_CODE)
    post = np.where(rng.random(codes.shape) < loss, VACANT_CODE, effective)

    meas = SiteMeasurement(hyperfine, occupation, inferred)
    if isinstance(site, np.ndarray):
        return meas, post
    return meas.item(), CODE_STATES[post[0]]


@dataclass(frozen=True)
class ReadoutRecord:
    """One (round, target) step.  In an array readout every field but
    round_index and site is an array over the trials that measured the
    target: all of them, unless adaptive_rounds skipped some."""

    round_index: int
    site: int
    was_occupied: bool  # ground truth just before this measurement
    prepared: SiteState  # ground-truth state just before this measurement
    result: SiteMeasurement


def _depump(states: np.ndarray, p: float, rng, spare: int | None = None) -> None:
    """In place, each bright atom outside column `spare` depumps to F=1 with
    probability p."""
    hit = (rng.random(states.shape) < p) & (states == F2_CODE)
    if spare is not None:
        hit[:, spare] = False
    states[hit] = F1_CODE


def sequential_array_readout(
    register: Register | np.ndarray,
    target_order: list[int],
    hiding_power_mw: float,
    rng: np.random.Generator,
    *,
    probe: ProbeConfig,
    table: MeasurementErrorTable,
    photon: PhotonModel,
    hiding: HidingModel,
    adaptive_rounds: bool = False,
    adaptive: bool = True,
    adaptive_loss_factor: float = 4.5,
    rounds: int = 1,
    idle_intervals: int = 0,
    re_prepare: str = "bright",
) -> tuple[list[ReadoutRecord], Register | np.ndarray]:
    """Sequentially measure the target sites, one at a time, for one or more
    rounds.

    `register` is a Register, or an int8 array of state codes of shape
    (trials, sites) whose trials are read out together; the records then
    hold arrays and the final state comes back as a code array.

    While a target is probed, every other occupied bright atom independently
    depumps with hidden_depump_probability (charged once per target
    measurement).  idle_intervals adds probe-free intervals per round during
    which waiting atoms depump at the background floor only.  With
    adaptive_rounds, sites inferred vacant in the previous round are skipped.

    re_prepare: "bright" repumps each present target to F=2 right after its
    measurement (bright-state characterization), "inferred" resets it to the
    inferred state, "none" leaves the post-measurement state.
    """
    single = isinstance(register, Register)
    states = state_codes(register.sites)[None, :] if single else register.copy()
    trials, n = states.shape
    if len(set(target_order)) != len(target_order):
        raise ConfigurationError("duplicate target indices")
    if any(i < 0 or i >= n for i in target_order):
        raise ConfigurationError("target index out of range")
    if re_prepare not in ("bright", "inferred", "none"):
        raise ConfigurationError(f"unknown re_prepare policy {re_prepare!r}")

    p_hidden = hidden_depump_probability(hiding, hiding_power_mw)
    believed_present = np.ones((trials, n), dtype=bool)
    records: list[ReadoutRecord] = []

    for round_index in range(rounds):
        for target in target_order:
            rows = slice(None)  # every trial, unless adaptive rounds skip some
            if adaptive_rounds:
                rows = np.flatnonzero(believed_present[:, target])
            prepared = states[rows, target].copy()
            if prepared.size == 0:
                continue
            meas, post = measure_site(prepared, probe, table, photon, rng, adaptive=adaptive,
                                      adaptive_loss_factor=adaptive_loss_factor)
            records.append(ReadoutRecord(round_index, target, prepared != VACANT_CODE,
                                         prepared, meas))
            believed_present[rows, target] = meas.inferred != VACANT_CODE
            present = post != VACANT_CODE
            if re_prepare == "bright":
                post = np.where(present, F2_CODE, post)
            elif re_prepare == "inferred":
                post = np.where(present & (meas.inferred != VACANT_CODE), meas.inferred, post)
            states[rows, target] = post
            # hidden bright atoms elsewhere depump during this measurement
            hidden = states[rows]  # a view, or a copy that is written back
            _depump(hidden, p_hidden, rng, spare=target)
            states[rows] = hidden
        for _ in range(idle_intervals):
            _depump(states, hiding.background_floor, rng)

    if not single:
        return records, states
    records = [ReadoutRecord(r.round_index, r.site, bool(r.was_occupied[0]),
                             CODE_STATES[r.prepared[0]], r.result.item()) for r in records]
    return records, replace(register, sites=[CODE_STATES[c] for c in states[0]])
