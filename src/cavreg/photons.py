"""Detected-photon statistics for cavity-enhanced fluorescence readout.

Photon arrivals are modeled as a homogeneous Poisson process at a fixed rate
while the probe is on: a bright (F=2) atom yields ``bright_mean_full``
detected photons per full interval on average, dark (F=1) atoms and vacant
sites yield dark counts only.  Dark counts from both detectors are summed
into one stream.

Adaptive termination polls the accumulated counts at every sub-interval
boundary and switches the probe off once the detection threshold is crossed,
which cuts the mean photon number (and with it measurement-induced loss)
several-fold for bright atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .register import F2


@dataclass(frozen=True)
class CavityParams:
    """Atom-cavity parameters; rates in MHz (2*pi-free, consistent units)."""

    g0_mhz: float = 0.55  # half of the 1.1 MHz single-photon Rabi frequency
    kappa_mhz: float = 0.10
    gamma_mhz: float = 6.0

    def __post_init__(self):
        if self.g0_mhz <= 0 or self.kappa_mhz <= 0 or self.gamma_mhz <= 0:
            raise ConfigurationError("cavity rates must be positive")


def cooperativity(params: CavityParams) -> float:
    """Peak single-atom cooperativity 4*g0^2/(kappa*gamma)."""
    return 4.0 * params.g0_mhz**2 / (params.kappa_mhz * params.gamma_mhz)


@dataclass(frozen=True)
class DetectorModel:
    dark_rate_hz: float = 60.0  # per detector
    n_detectors: int = 2

    def __post_init__(self):
        if self.dark_rate_hz < 0 or self.n_detectors < 1:
            raise ConfigurationError("invalid detector model")

    def dark_mean(self, interval_us: float) -> float:
        """Summed dark-count mean over all detectors for one interval."""
        return self.n_detectors * self.dark_rate_hz * interval_us * 1e-6


@dataclass(frozen=True)
class PhotonModel:
    bright_mean_full: float = 15.0
    full_interval_us: float = 200.0
    sub_interval_us: float = 20.0
    threshold: int = 2  # bright iff counts >= threshold
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self):
        if self.bright_mean_full <= 0:
            raise ConfigurationError("bright mean must be positive")
        if self.threshold < 1:
            raise ConfigurationError("threshold must be >= 1")
        n = self.full_interval_us / self.sub_interval_us
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ConfigurationError(
                "full interval must be an integer multiple of the sub-interval"
            )

    @property
    def n_sub(self) -> int:
        return round(self.full_interval_us / self.sub_interval_us)

    def mean_full(self, bright: bool) -> float:
        """Mean detected counts over a full interval for an emitter state."""
        dark = self.detector.dark_mean(self.full_interval_us)
        return self.bright_mean_full + dark if bright else dark


@dataclass(frozen=True)
class IntervalOutcome:
    """Counts, probe-on duration and bright call of one interval, as arrays
    over the trial axis."""

    counts: np.ndarray
    duration_us: np.ndarray
    bright: np.ndarray  # counts >= threshold


def _mean_full(codes: np.ndarray, model: PhotonModel) -> np.ndarray:
    """Full-interval mean counts per state code (vacant and F=1 look dark)."""
    dark = model.mean_full(False)
    return np.array([dark, dark, model.mean_full(True)])[codes]


def _poisson(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """One Poisson draw per mean.  A single mean draws through numpy's scalar
    path, whose fixed cost is a tenth of the array path's."""
    return np.full(lam.shape, rng.poisson(lam[0])) if lam.size == 1 else rng.poisson(lam)


def sample_full_interval(
    codes: np.ndarray, model: PhotonModel, rng: np.random.Generator
) -> IntervalOutcome:
    """Poisson counts over the full interval, one per trial of a 1-D array
    of state codes; vacant sites look dark."""
    counts = _poisson(rng, _mean_full(codes, model))
    full = np.full(codes.shape, model.full_interval_us)
    return IntervalOutcome(counts, full, counts >= model.threshold)


def sample_adaptive_interval(
    codes: np.ndarray, model: PhotonModel, rng: np.random.Generator
) -> IntervalOutcome:
    """Accumulate Poisson counts sub-interval by sub-interval, stopping at the
    first boundary where the cumulative count reaches the threshold.

    `codes` is a 1-D array of state codes, one per trial.  Each sub-interval
    makes one Poisson draw for the trials still probing."""
    counts = np.zeros(codes.shape, dtype=np.int64)
    probed = np.full(codes.shape, model.n_sub)  # sub-intervals with the probe on
    # the trials still probing: their indices, running counts and means
    live, running = np.arange(codes.size), counts.copy()
    lam = _mean_full(codes, model) / model.n_sub
    for k in range(1, model.n_sub + 1):
        if live.size == 0:
            break
        running = running + _poisson(rng, lam)
        crossed = running >= model.threshold
        if crossed.any():
            counts[live[crossed]], probed[live[crossed]] = running[crossed], k
            live, running, lam = live[~crossed], running[~crossed], lam[~crossed]
    counts[live] = running
    return IntervalOutcome(counts, probed * model.sub_interval_us, counts >= model.threshold)


def sample_adaptive_bright_batch(
    model: PhotonModel, n_trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive sampling of n_trials bright (F=2) atoms: the (counts,
    durations_us) arrays of sample_adaptive_interval."""
    out = sample_adaptive_interval(np.full(n_trials, F2, dtype=np.int8), model, rng)
    return out.counts, out.duration_us


def adaptive_reduction_factors(
    model: PhotonModel, n_trials: int, rng: np.random.Generator
) -> dict[str, float]:
    """Monte-Carlo photon- and duration-reduction factors of adaptive
    termination for a bright atom, with standard errors.

    photon_factor = bright_mean_full / mean(adaptive counts)
    duration_factor = full_interval / mean(adaptive duration)
    """
    if n_trials < 10_000:
        raise ConfigurationError("need at least 1e4 trials for stable factors")
    counts, durations = sample_adaptive_bright_batch(model, n_trials, rng)
    mean_c = float(counts.mean())
    mean_d = float(durations.mean())
    se_c = float(counts.std(ddof=1)) / math.sqrt(n_trials)
    se_d = float(durations.std(ddof=1)) / math.sqrt(n_trials)
    photon_factor = model.bright_mean_full / mean_c
    duration_factor = model.full_interval_us / mean_d
    return {
        "photon_factor": photon_factor,
        "photon_factor_stderr": photon_factor * se_c / mean_c,
        "duration_factor": duration_factor,
        "duration_factor_stderr": duration_factor * se_d / mean_d,
        "mean_counts": mean_c,
        "mean_counts_stderr": se_c,
        "mean_duration_us": mean_d,
        "mean_duration_stderr": se_d,
    }


def expected_stop_index(model: PhotonModel) -> float:
    """Exact E[number of sub-intervals probed] for a bright atom.

    Independent enumeration oracle: the cumulative count after n
    sub-intervals is Poisson(n*lam_sub), and the probe is still on after n
    checks iff that count is below threshold.
    """
    lam_sub = model.mean_full(True) / model.n_sub
    expect = 1.0
    for n in range(1, model.n_sub):
        lam = n * lam_sub
        # P(Poisson(lam) <= threshold - 1)
        term = np.exp(-lam)
        tail = term
        for k in range(1, model.threshold):
            term = term * lam / k
            tail += term
        expect += tail
    return float(expect)
