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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_finite, check_integers
from .register import F2

# Most sub-intervals a full interval may poll: the adaptive table builds one
# convolution each, about 0.06 s and 9k cells for 1000, and 0.5 s and 64k for 10000.
MAX_SUB_INTERVALS = 1000
# Largest mean count of a full interval, bright plus dark: both tables evaluate
# each Poisson pmf only within 12 sigma of its mean, so at 1e6 either table
# builds in about 5 ms, keeps 5k to 16k cells and peaks under 3 MB.
MAX_MEAN_COUNTS = 1e6
# Smallest probability a count law keeps: a 53-bit uniform cannot resolve less.
MIN_CELL_PROB = 1e-18
# Guide buckets per unit of the outcome table's [0, 2] edge range; a power of
# two, so the bucket v * GUIDE_BUCKETS of a draw v is exact.
GUIDE_BUCKETS = 1 << 12


@dataclass(frozen=True)
class CavityParams:
    """Atom-cavity parameters; rates in MHz (2*pi-free, consistent units)."""

    g0_mhz: float = 0.55  # half of the 1.1 MHz single-photon Rabi frequency
    kappa_mhz: float = 0.10
    gamma_mhz: float = 6.0

    def __post_init__(self):
        for name in ("g0_mhz", "kappa_mhz", "gamma_mhz"):
            check_finite(name, getattr(self, name))


def cooperativity(params: CavityParams) -> float:
    """Peak single-atom cooperativity 4*g0^2/(kappa*gamma)."""
    return 4.0 * params.g0_mhz**2 / (params.kappa_mhz * params.gamma_mhz)


@dataclass(frozen=True)
class DetectorModel:
    dark_rate_hz: float = 60.0  # per detector
    n_detectors: int = 2

    def __post_init__(self):
        check_finite("detector.dark_rate_hz", self.dark_rate_hz, positive=False)
        check_integers("detector.n_detectors", self.n_detectors, least=1)

    def dark_mean(self, interval_us: float) -> float:
        """Summed dark-count mean over all detectors for one interval."""
        return self.n_detectors * self.dark_rate_hz * interval_us * 1e-6


@dataclass(frozen=True)
class PhotonModel:
    bright_mean_full: float = 15.0
    full_interval_us: float = 200.0
    sub_interval_us: float = 20.0
    threshold_counts: int = 2  # bright iff counts >= threshold_counts
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self):
        check_finite("photon.bright_mean_full", self.bright_mean_full)
        check_finite("photon.full_interval_us", self.full_interval_us)
        check_finite("photon.sub_interval_us", self.sub_interval_us)
        check_integers("photon.threshold_counts", self.threshold_counts, least=1)
        n = self.full_interval_us / self.sub_interval_us
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ConfigurationError(
                "full interval must be an integer multiple of the sub-interval"
            )
        if round(n) > MAX_SUB_INTERVALS:
            raise ConfigurationError(f"{round(n)} sub-intervals exceed {MAX_SUB_INTERVALS}")
        if not self.mean_full(True) <= MAX_MEAN_COUNTS:  # NaN fails too
            raise ConfigurationError(
                f"mean count {self.mean_full(True):g} per full interval (bright plus dark) "
                f"exceeds {MAX_MEAN_COUNTS:g}"
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


def _poisson_pmf(mean: float, below: int | None = None) -> tuple[int, np.ndarray]:
    """(start, pmf): the Poisson(mean) pmf over start, start + 1, ...,
    below - 1, within 12 standard deviations plus 50 counts of the mean.
    The Chernoff bound puts every cell outside that window below exp(-72),
    far under MIN_CELL_PROB.  The pmf is empty when below <= start."""
    if mean == 0.0:
        return 0, np.ones(1)
    start = max(0, int(mean - 12.0 * math.sqrt(mean) - 50.0))
    size = int(mean + 12.0 * math.sqrt(mean) + 50.0)
    k = np.arange(start, size if below is None else min(size, below))
    log_factorial = math.lgamma(start + 1) + np.concatenate(
        ([0.0], np.cumsum(np.log(np.arange(start + 1, start + k.size))))
    )
    return start, np.exp(k * math.log(mean) - mean - log_factorial)


@dataclass(frozen=True)
class OutcomeTable:
    """Cells of a full or an adaptive interval's (stop index, final count)
    law: the dark emitter's, then the bright emitter's."""

    bright: np.ndarray  # the cell belongs to the bright emitter's law
    stop: np.ndarray  # sub-intervals probed
    counts: np.ndarray
    duration_us: np.ndarray  # probe-on time; full_interval_us exactly at stop n
    prob: np.ndarray
    edges: np.ndarray  # lower cumulative edges, dark cells in [0, 1], bright in [1, 2]
    # per bucket [b, b + 1) / GUIDE_BUCKETS, b = 0..2 GUIDE_BUCKETS, the one
    # cell covering all of it, or -1 where an edge splits the bucket
    guide: np.ndarray

    def cells(self, v: np.ndarray) -> np.ndarray:
        """The cell holding each point of v in [0, 2], searchsorted(edges, v,
        "right") - 1: the guide's cell of its bucket, or a binary search of
        the edges where an edge splits the bucket."""
        cell = self.guide[(v * GUIDE_BUCKETS).astype(np.intp)]
        split = cell < 0
        if split.any():
            cell[split] = np.searchsorted(self.edges, v[split], "right") - 1
        return cell


@functools.lru_cache(maxsize=32)
def outcome_table(model: PhotonModel, adaptive: bool) -> OutcomeTable:
    """Exact joint law of the stop index K and the final count C of one
    interval for a dark and a bright emitter, built once per (model,
    adaptive).

    A full interval never stops early: one cell per count, all at K = n, of
    the Poisson pmf, renormalized after its trim.  Under adaptive termination
    with sub-interval mean lam and threshold t, a stop at sub-interval k with
    j < t counts before it and y in it (j + y >= t) has probability
    Pois((k-1) lam; j) * Pois(lam; y), and no stop with j < t counts has
    probability Pois(n lam; j).  Cells below MIN_CELL_PROB are dropped, so
    the table's size does not grow with the threshold."""
    n, t = model.n_sub, model.threshold_counts
    blocks = []
    for bright in (False, True):
        mean = model.mean_full(bright)
        cells = []  # (stop, counts, prob)
        if adaptive:
            lam = mean / n
            low, in_sub = _poisson_pmf(lam)
            for k in range(1, n + 1):
                # P(K = k, C = c) = sum over j < t of Pois((k-1) lam; j) Pois(lam; c - j), c >= t
                start, before = _poisson_pmf((k - 1) * lam, t)
                if before.size:  # else every j < t lies far under the mean
                    p = np.convolve(before, in_sub)
                    c = start + low + np.arange(p.size)
                    p, c = p[c >= t], c[c >= t]
                    cells.append((np.full(p.size, k), c, p))
            start, never = _poisson_pmf(n * lam, t)
        else:
            start, never = _poisson_pmf(mean)
        # no early stop: the counts below t, or every count of a full interval
        cells.append((np.full(never.size, n), start + np.arange(never.size), never))
        stop, counts, prob = map(np.concatenate, zip(*cells))
        keep = prob >= MIN_CELL_PROB
        stop, counts, prob = stop[keep], counts[keep], prob[keep]
        if not adaptive:
            prob = prob / prob.sum()
        lower = np.minimum(np.concatenate(([0.0], np.cumsum(prob)[:-1])), 1.0)
        duration = np.where(stop == n, model.full_interval_us, stop * model.sub_interval_us)
        blocks.append((np.full(prob.size, bright), stop, counts, duration, prob, bright + lower))
    *columns, edges = map(np.concatenate, zip(*blocks))
    # 2 GUIDE_BUCKETS + 1 buckets: u + 1 rounds to exactly 2.0 for u = 1 - 2**-53
    bucket = np.arange(2 * GUIDE_BUCKETS + 1)
    first = np.searchsorted(edges, bucket / GUIDE_BUCKETS, "right") - 1
    last = np.searchsorted(edges, (bucket + 1) / GUIDE_BUCKETS, "left") - 1
    table = OutcomeTable(*columns, edges, np.where(first == last, first, -1))
    for array in vars(table).values():
        array.setflags(write=False)  # shared by every caller of the cache
    return table


def _sample_interval(
    codes: np.ndarray, model: PhotonModel, rng: np.random.Generator, adaptive: bool
) -> IntervalOutcome:
    """One interval per code of an array of any shape: each code draws one
    uniform, in C order, offset into the bright half of the outcome table
    for F=2, and takes the cell it falls in, found in O(1) through the
    table's guide for all but the draws near an edge.  Vacant sites look dark."""
    table = outcome_table(model, adaptive)
    cell = table.cells(rng.random(codes.shape) + (codes == F2))
    counts = table.counts[cell]
    return IntervalOutcome(counts, table.duration_us[cell], counts >= model.threshold_counts)


def sample_full_interval(
    codes: np.ndarray, model: PhotonModel, rng: np.random.Generator
) -> IntervalOutcome:
    """Poisson counts over the full interval, one per element of `codes`."""
    return _sample_interval(codes, model, rng, False)


def sample_adaptive_interval(
    codes: np.ndarray, model: PhotonModel, rng: np.random.Generator
) -> IntervalOutcome:
    """Counts and probe-on duration of adaptive termination, which stops at
    the first sub-interval boundary where the cumulative count reaches the
    threshold, one per element of `codes`."""
    return _sample_interval(codes, model, rng, True)


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
    factors = {}
    for name, full, sample in [("photon", model.bright_mean_full, counts),
                               ("duration", model.full_interval_us, durations)]:
        mean, se = float(sample.mean()), float(sample.std(ddof=1)) / math.sqrt(n_trials)
        factors[f"{name}_factor"] = factor = full / mean
        factors[f"{name}_factor_stderr"] = factor * se / mean
    return factors
