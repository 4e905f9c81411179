"""Repeated classical repetition-code error correction over the register.

One logical bit is stored in the hyperfine states of d atoms (bit 0 -> F=1,
bit 1 -> F=2).  Each round the register idles (accumulating flips and loss),
all code atoms are measured, the surviving outcomes are majority-voted, and
the survivors are re-initialized to the vote result.  A tied vote, or an
empty register, resolves by fair coin toss.  Lost atoms are never reloaded,
so the effective distance shrinks over rounds.

The code is abstract: each round applies bare per-round flip and loss
probabilities (the Monte-Carlo convention behind the headline lifetime
factors); no measurement goes through the readout protocol.  Each atom is
lost independently with the per-round loss before each round's vote, so
its alive rounds are a prefix, and a round with s survivors errs with the
round hazard h_s, independently of every other round.
simulate_code_abstract samples the per-trial, per-round trace that lifetime
curves need, from one loss uniform per atom.  round_counts (error-scaling's
rounds per survivor count) and simulate_idling_bit (the unprotected bit)
are count chains on sample_chain: the trials in each state move on
together, one multinomial draw per step, at a cost free of the trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_integers, check_probability
from .fitting import SaturatingExpFit, fit_linear, fit_saturating_exponential
from .register import F1, F2, VACANT, IdleErrorModel, flip_probability, loss_probability


def check_code(distance: int, rounds: int, probabilities: dict[str, float]) -> None:
    """Reject a code run that cannot be simulated: a distance that is not an
    odd int >= 1, a round count that is not an int >= 1, or a probability
    outside [0, 1].  Each is named by its config key; `probabilities` maps
    key to value."""
    check_integers("code.distances", distance)
    if distance < 1 or distance % 2 == 0:
        raise ConfigurationError(f"{distance} is not odd and >= 1", "code.distances")
    check_integers("code.rounds", rounds, least=1)
    for key, p in probabilities.items():
        check_probability(key, p)


@dataclass
class CodeTrace:
    """Per-round Monte-Carlo ensemble arrays for one (distance, flip, loss).

    new_error[t, r]   vote differs from the state prepared at round start
    err_vs_initial[t, r]  resolved logical state differs from the initial bit
    survivors[t, r]   non-lost votes in the round
    """

    new_error: np.ndarray
    err_vs_initial: np.ndarray
    survivors: np.ndarray


def round_hazard(distance: int, p: float) -> np.ndarray:
    """h[s], s = 0..distance: the probability that a round with s surviving
    votes, each flipped with probability p, resolves wrong.  A majority of
    flips errs; a tie, the empty register included, errs half the time."""
    return np.array([
        sum(math.comb(s, k) * p**k * (1 - p) ** (s - k) * (1.0 if 2 * k > s else 0.5)
            for k in range((s + 1) // 2, s + 1))
        for s in range(distance + 1)
    ])


def simulate_code_abstract(
    distance: int,
    flip_p: float,
    loss_p: float,
    rounds: int,
    n_trials: int,
    rng: np.random.Generator,
) -> CodeTrace:
    """The code ensemble, distributionally identical to stepping each trial
    round by round, with no loop over rounds.  Loss is independent of flips,
    so one uniform u per atom, drawn first, fixes its loss round: the atom
    is alive in round r iff u < (1 - loss_p)**(r + 1), a prefix of the
    rounds.  A round with s survivors errs with probability
    round_hazard(distance, flip_p)[s], independently of every other round."""
    alive_below = (1.0 - loss_p) ** np.arange(1, rounds + 1)
    u = rng.random((n_trials, distance))
    survivors = np.zeros((n_trials, rounds), dtype=np.intp)  # intp: a fast gather index
    for atom in u.T:
        survivors += atom[:, None] < alive_below
    hazard = round_hazard(distance, flip_p)[survivors]
    survivors = survivors.astype(np.int16)
    new_error = rng.random((n_trials, rounds)) < hazard
    err_vs_initial = np.logical_xor.accumulate(new_error, axis=1)
    return CodeTrace(new_error, err_vs_initial, survivors)


def sample_chain(start, laws, rng: np.random.Generator) -> np.ndarray:
    """(steps, states) trial counts of a finite Markov chain: row k holds the
    trials in each state after step k, stepped from the counts `start` by
    laws[k] (row = current state, column = next state) in one multinomial
    draw.  State 0 must be absorbing and reachable from every row: numpy's
    multinomial gives a row's rounding remainder to its last column, so
    each law is drawn with its columns reversed and the remainder lands in
    state 0."""
    at = np.asarray(start, dtype=np.int64)
    counts = np.empty((len(laws), at.size), dtype=np.int64)
    for k, law in enumerate(laws):
        at = counts[k] = rng.multinomial(at, law[:, ::-1]).sum(axis=0)[::-1]
    return counts


def _survivor_law(distance: int, loss_p: float) -> np.ndarray:
    """(distance + 1, distance + 1) one-round survivor transition: row s is
    the Binomial(s, 1 - loss_p) law of the next round's survivors."""
    q = 1.0 - loss_p
    return np.array([
        [math.comb(s, j) * q**j * (1 - q) ** (s - j) if j <= s else 0.0
         for j in range(distance + 1)]
        for s in range(distance + 1)
    ])


def round_counts(
    distance: int,
    flip_p: float,
    loss_p: float,
    rounds: int,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(distance + 1, 2) counts of (clean, erring) rounds with s = 0..distance
    survivors, summed over n_trials trials of the simulate_code_abstract
    ensemble, without a per-trial trace.

    Atoms are lost independently, so the survivor count is a Markov chain:
    sample_chain steps the trials at each count by _survivor_law before
    each round's vote, from all `distance` atoms, and the N_s rounds with s
    survivors are the per-round counts summed.  Given the survivors, rounds
    err independently with the round hazard, so the erring rounds with s
    survivors are Binomial(N_s, round_hazard(distance, flip_p)[s]).  The
    cost grows with distance and rounds, not with n_trials."""
    start = n_trials * np.eye(distance + 1, dtype=np.int64)[distance]  # all atoms alive
    n_rounds = sample_chain(start, [_survivor_law(distance, loss_p)] * rounds, rng).sum(axis=0)
    errors = rng.binomial(n_rounds, round_hazard(distance, flip_p))
    return np.stack([n_rounds - errors, errors], axis=1)


def majority_error_probability(distance: int, p: float) -> float:
    """Exact no-loss per-round logical error: the round hazard with all
    `distance` atoms voting."""
    return float(round_hazard(distance, p)[distance])


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


def _idle_law(dt: float, model: IdleErrorModel) -> np.ndarray:
    """(3, 3) one-step law of an idling bit, indexed by the state codes
    (VACANT, F1, F2): row c is the next state's law from state c.  An
    occupied atom flips with f and is lost with l, independently; vacant
    stays vacant."""
    if dt < 0:
        raise ConfigurationError("idle duration must be non-negative")
    f, l = flip_probability(dt, model), loss_probability(dt, model)
    stay, flip = (1 - f) * (1 - l), f * (1 - l)
    return np.array([[1.0, 0.0, 0.0], [l, stay, flip], [l, flip, stay]])


def simulate_idling_bit(
    idle_model: IdleErrorModel,
    times_ms: np.ndarray,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Error counts of n_trials unmeasured idling bits, read out destructively
    at each grid time (a lost atom reads as a coin toss).

    The trials are independent Markov chains on the state codes:
    sample_chain steps them from all-F1 by _idle_law, one grid step each.
    A step's errors are its F2 trials plus a fresh Binomial(vacant, 1/2)
    coin count, drawn for every step in one call after the chain.  The cost
    grows with the grid, not with n_trials.  A decreasing grid is rejected
    before any draw."""
    times_ms = np.asarray(times_ms, dtype=float)
    laws = [_idle_law(dt, idle_model) for dt in np.diff(times_ms, prepend=0.0)]
    at = sample_chain(n_trials * np.eye(3, dtype=np.int64)[F1], laws, rng)
    return at[:, F2] + rng.binomial(at[:, VACANT], 0.5)


def logical_lifetime(times_ms: np.ndarray, p_err: np.ndarray) -> SaturatingExpFit:
    """Fit p_err(t) = p_inf*(1 - exp(-t/tau)) and report the lifetime.

    The asymptote is constrained to p_inf <= 1/2: a binary state read out
    forever equilibrates to a fair coin, so larger values are unphysical.
    The lifetime is the fitted tau, where the curve reaches p_inf*(1-1/e).
    """
    return fit_saturating_exponential(times_ms, p_err, p_inf_max=0.5)
