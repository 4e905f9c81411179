"""Repeated classical repetition-code error correction over the register.

One logical bit is encoded in the hyperfine states of d atoms (bit 0 -> F=1,
bit 1 -> F=2).  Each round the register idles (accumulating flips and loss),
all code atoms are measured, the surviving outcomes are majority-voted, and
the survivors are re-initialized to the vote result.  A tied vote, or an
empty register, resolves by fair coin toss.  Lost atoms are never reloaded,
so the effective distance shrinks over rounds.

Two modes: "abstract" applies bare per-round flip/loss probabilities (the
Monte-Carlo convention behind the headline lifetime factors), "physical"
routes every measurement through the full readout protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigurationError, LoadFailure
from .fitting import SaturatingExpFit, fit_linear, fit_saturating_exponential
from .photons import PhotonModel
from .readout import (
    HidingModel,
    MeasurementErrorTable,
    ProbeConfig,
    sequential_array_readout,
)
from .register import (
    F1,
    F2,
    IdleErrorModel,
    Register,
    SiteState,
    flip_probability,
    idle,
    loss_probability,
)


@dataclass(frozen=True)
class CodeConfig:
    distance: int = 3
    rounds: int = 17
    idle_ms: float = 20.0
    per_round_flip: float = 0.09
    per_round_loss: float = 0.037
    round_overhead_ms: float = 4.0  # wall-clock spent measuring the array

    def __post_init__(self):
        if self.distance < 1 or self.distance % 2 == 0:
            raise ConfigurationError("code distance must be odd and >= 1")
        if not (0.0 <= self.per_round_flip <= 1.0 and 0.0 <= self.per_round_loss <= 1.0):
            raise ConfigurationError("per-round probabilities must be in [0, 1]")
        if self.rounds < 1:
            raise ConfigurationError("need at least one round")

    @property
    def round_time_ms(self) -> float:
        return self.idle_ms + self.round_overhead_ms


class VoteOutcome(Enum):
    ZERO = 0
    ONE = 1
    COIN_TOSS = 2


@dataclass
class RoundRecord:
    round_index: int
    votes: list[SiteState]  # F1 / F2 / None (lost) per code site
    survivors: int
    vote_outcome: VoteOutcome
    logical_state_after: int  # the resolved bit, coin included


def _bit_state(bit: int) -> SiteState:
    return F2 if bit else F1


def encode(register: Register, bit: int, distance: int) -> Register:
    """Prepare the first `distance` occupied sites to the bit's hyperfine
    state; other sites are untouched."""
    if bit not in (0, 1):
        raise ConfigurationError("logical bit must be 0 or 1")
    occupied = register.occupied_indices()
    if len(occupied) < distance:
        raise LoadFailure(
            f"{len(occupied)} atoms loaded, {distance} required"
        )
    sites = list(register.sites)
    for i in occupied[:distance]:
        sites[i] = _bit_state(bit)
    return replace(register, sites=sites)


def run_round(
    register: Register,
    config: CodeConfig,
    rng: np.random.Generator,
    round_index: int = 0,
    *,
    code_sites: list[int] | None = None,
    mode: str = "abstract",
    idle_model: IdleErrorModel | None = None,
    probe: ProbeConfig | None = None,
    table: MeasurementErrorTable | None = None,
    photon: PhotonModel | None = None,
    hiding: HidingModel | None = None,
    hiding_power_mw: float = 2.0,
    adaptive_loss_factor: float = 4.5,
) -> tuple[RoundRecord, Register]:
    """One cycle: error accumulation, measurement, majority vote, coin-toss
    tie break, re-initialization of all survivors to the vote outcome."""
    if code_sites is None:
        code_sites = list(range(register.n))
    sites = list(register.sites)

    votes: list[SiteState] = []
    if mode == "abstract":
        for i in code_sites:
            s = sites[i]
            if s is not None:
                if rng.random() < config.per_round_flip:
                    s = F1 if s is F2 else F2
                if rng.random() < config.per_round_loss:
                    s = None
                sites[i] = s
            votes.append(sites[i])
    elif mode == "physical":
        if None in (idle_model, probe, table, photon, hiding):
            raise ConfigurationError("physical mode needs the full readout models")
        reg = idle(replace(register, sites=sites), config.idle_ms, idle_model, rng)
        records, reg = sequential_array_readout(
            reg, code_sites, hiding_power_mw, rng,
            probe=probe, table=table, photon=photon, hiding=hiding,
            adaptive_loss_factor=adaptive_loss_factor, rounds=1, re_prepare="none",
        )
        sites = list(reg.sites)
        votes = [rec.result.inferred for rec in records]
    else:
        raise ConfigurationError(f"unknown mode {mode!r}")

    ones = sum(1 for v in votes if v is F2)
    zeros = sum(1 for v in votes if v is F1)
    survivors = ones + zeros
    if ones > zeros:
        outcome, bit = VoteOutcome.ONE, 1
    elif zeros > ones:
        outcome, bit = VoteOutcome.ZERO, 0
    else:  # tie, or no atoms remain
        outcome = VoteOutcome.COIN_TOSS
        bit = int(rng.random() < 0.5)

    for i in code_sites:
        if sites[i] is not None:
            sites[i] = _bit_state(bit)

    record = RoundRecord(round_index, votes, survivors, outcome, bit)
    return record, replace(register, sites=sites)


@dataclass
class CodeTrace:
    """Per-round Monte-Carlo ensemble arrays for one (distance, flip, loss).

    new_error[t, r]   vote differs from the state prepared at round start
    err_vs_initial[t, r]  resolved logical state differs from the encoded bit
    survivors[t, r]   non-lost votes in the round
    """

    distance: int
    new_error: np.ndarray
    err_vs_initial: np.ndarray
    survivors: np.ndarray

    @property
    def rounds(self) -> int:
        return self.new_error.shape[1]


def simulate_code_abstract(
    distance: int,
    flip_p: float,
    loss_p: float,
    rounds: int,
    n_trials: int,
    rng: np.random.Generator,
) -> CodeTrace:
    """Vectorized abstract-mode ensemble; distributionally identical to
    running run_round trial by trial."""
    alive = np.ones((n_trials, distance), dtype=bool)
    new_error = np.empty((n_trials, rounds), dtype=bool)
    err_vs_initial = np.empty((n_trials, rounds), dtype=bool)
    survivors = np.empty((n_trials, rounds), dtype=np.int16)
    wrong = np.zeros(n_trials, dtype=bool)  # logical state vs encoded bit
    for r in range(rounds):
        flips = rng.random((n_trials, distance)) < flip_p
        alive &= rng.random((n_trials, distance)) >= loss_p
        wrong_votes = (flips & alive).sum(axis=1)
        s = alive.sum(axis=1)
        tie = wrong_votes * 2 == s  # covers s == 0
        flipped = wrong_votes * 2 > s
        coin = rng.random(n_trials) < 0.5
        err = flipped | (tie & coin)
        new_error[:, r] = err
        wrong ^= err
        err_vs_initial[:, r] = wrong
        survivors[:, r] = s
    return CodeTrace(distance, new_error, err_vs_initial, survivors)


def majority_error_probability(distance: int, p: float) -> float:
    """Exact no-loss per-round logical error: majority of d flips, ties (even
    survivor counts cannot occur at full distance) excluded."""
    return sum(
        math.comb(distance, k) * p**k * (1 - p) ** (distance - k)
        for k in range(distance // 2 + 1, distance + 1)
    )


@dataclass
class CurveCell:
    p_phys: float
    distance: int
    survivors: int
    p_logical: float
    stderr: float
    n_rounds: int
    flagged: bool


def logical_error_curve(
    distances: list[int],
    flip_sweep: list[float],
    loss_p: float,
    rounds: int,
    n_trials: int,
    rng_for_point,
    post_select_survivors: int | str | None = "distance",
) -> list[CurveCell]:
    """Per-round logical error probability vs physical flip probability.

    rng_for_point(d_index, p_index) must return an independent random stream
    per sweep point.  post_select_survivors: "distance" keeps rounds with all
    d atoms present, an int keeps that survivor count, None reports one cell
    per observed survivor count.
    """
    cells: list[CurveCell] = []
    for di, d in enumerate(distances):
        for pi, p in enumerate(flip_sweep):
            trace = simulate_code_abstract(
                d, p, loss_p, rounds, n_trials, rng_for_point(di, pi)
            )
            if post_select_survivors is None:
                groups = range(d + 1)
            elif post_select_survivors == "distance":
                groups = [d]
            else:
                groups = [int(post_select_survivors)]
            for s in groups:
                sel = trace.survivors == s
                n = int(sel.sum())
                if n == 0:
                    cells.append(CurveCell(p, d, s, math.nan, math.nan, 0, True))
                    continue
                k = int(trace.new_error[sel].sum())
                p_log = k / n
                stderr = math.sqrt(max(p_log * (1 - p_log), 0.0) / n)
                flagged = k == 0 or stderr > 0.1 * p_log
                cells.append(CurveCell(p, d, s, p_log, stderr, n, flagged))
    return cells


def fit_error_exponent(
    p_phys: list[float], p_logical: list[float]
) -> tuple[float, float]:
    """Unweighted log-log least-squares slope with its standard error."""
    if len(p_phys) < 4:
        raise ConfigurationError("need at least 4 sweep points")
    if any(p <= 0 for p in p_phys) or any(p <= 0 for p in p_logical):
        raise ConfigurationError("power-law fit needs positive probabilities")
    if max(p_phys) / min(p_phys) < 10.0:
        raise ConfigurationError("sweep must span at least a decade")
    fit = fit_linear(np.log(np.asarray(p_phys)), np.log(np.asarray(p_logical)))
    return fit.slope, fit.slope_stderr


def simulate_idling_bit(
    idle_model: IdleErrorModel,
    times_ms: np.ndarray,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ensemble error probability of a single unmeasured idling bit, read out
    destructively at each grid time (a lost atom reads as a coin toss)."""
    times_ms = np.asarray(times_ms, dtype=float)
    steps = np.diff(np.concatenate([[0.0], times_ms]))
    alive = np.ones(n_trials, dtype=bool)
    flipped = np.zeros(n_trials, dtype=bool)
    p_err = np.empty(len(times_ms))
    for k, dt in enumerate(steps):
        flipped ^= rng.random(n_trials) < flip_probability(dt, idle_model)
        alive &= rng.random(n_trials) >= loss_probability(dt, idle_model)
        coin = rng.random(n_trials) < 0.5
        p_err[k] = np.where(alive, flipped, coin).mean()
    return p_err


@dataclass
class LifetimeResult:
    lifetime_ms: float
    tau_ms: float
    p_inf: float
    crossing_1_minus_1_over_e_ms: float  # fitted curve reaches p_inf*(1-1/e)
    crossing_p_inf_over_e_ms: float  # fitted curve reaches p_inf/e
    fit: SaturatingExpFit
    low_confidence: bool


def logical_lifetime(
    times_ms: np.ndarray,
    p_err: np.ndarray,
    definition: str = "fitted_tau",
) -> LifetimeResult:
    """Fit p_err(t) = p_inf*(1 - exp(-t/tau)) and report the lifetime.

    The asymptote is constrained to p_inf <= 1/2: a binary state read out
    forever equilibrates to a fair coin, so larger values are unphysical.
    Both readings of the 1/e-crossing convention are reported; the headline
    lifetime uses the fitted tau unless another definition is selected.
    """
    fit = fit_saturating_exponential(times_ms, p_err, p_inf_max=0.5)
    tau = fit.tau
    cross_1me = tau  # p_inf*(1-1/e) is reached at t = tau exactly
    cross_over_e = -tau * math.log(1.0 - 1.0 / math.e)
    choices = {
        "fitted_tau": tau,
        "crossing_1_minus_1_over_e": cross_1me,
        "crossing_p_inf_over_e": cross_over_e,
    }
    if definition not in choices:
        raise ConfigurationError(f"unknown lifetime definition {definition!r}")
    # plateau not reached within the data -> extrapolated, low confidence
    low_confidence = bool(
        (not fit.converged) or p_err[-1] < (1.0 - 1.0 / math.e) * fit.p_inf
    )
    return LifetimeResult(
        choices[definition], tau, fit.p_inf, cross_1me, cross_over_e, fit,
        low_confidence,
    )
