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
round hazard h_s, independently of every other round.  Two kernels sample
that law.  simulate_code_abstract builds the per-trial, per-round survivors
and vote errors that lifetime curves need: one uniform per atom fixes how
many rounds it stays alive, and each round's survivors are counted from
those uniforms.  round_counts gives the error-scaling cells only the
rounds spent with s survivors: it steps the number of trials at each
survivor count through the rounds, one multinomial draw per round, and
draws the erring rounds of each s as one binomial.  simulate_idling_bit steps the unprotected bit the same way: the
number of trials in F1, F2 and vacant moves through the time grid with one
multinomial draw per grid step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_integers, check_probability
from .fitting import SaturatingExpFit, fit_linear, fit_saturating_exponential
from .register import IdleErrorModel, flip_probability, loss_probability


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


def _survivor_law(distance: int, loss_p: float) -> np.ndarray:
    """(distance + 1, distance + 1) one-round survivor transition: row s is
    the Binomial(s, 1 - loss_p) law of the next round's survivors, and
    column c holds survivor count distance - c.  numpy's multinomial gives
    the last column whatever rounding leaves of a row, so the last column
    is the empty register, which every row can reach."""
    q = 1.0 - loss_p
    return np.array([
        [math.comb(s, j) * q**j * (1 - q) ** (s - j) if j <= s else 0.0
         for j in range(distance, -1, -1)]
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

    Atoms are lost independently, so the survivor count is a Markov chain
    and the trials at each count move on together: before each round's
    vote, the trials with s survivors split over the next counts in one
    multinomial draw by _survivor_law, and the N_s rounds with s survivors
    are the per-round counts summed.  Given the survivors, rounds err
    independently with the round hazard, so the erring rounds with s
    survivors are Binomial(N_s, round_hazard(distance, flip_p)[s]).  The
    cost grows with distance and rounds, not with n_trials."""
    law = _survivor_law(distance, loss_p)
    at = np.zeros(distance + 1, dtype=np.int64)  # trials per survivor count
    at[distance] = n_trials
    n_rounds = np.zeros(distance + 1, dtype=np.int64)
    for _ in range(rounds):
        at = rng.multinomial(at, law).sum(axis=0)[::-1]
        n_rounds += at
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
    """(3, 3) one-step law of an idling bit over (F1, F2, vacant): row c is
    the next state's law from state c.  An occupied atom flips with f and is
    lost with l, independently; vacant stays vacant.  Vacant is the last
    column, so numpy's multinomial gives it a row's rounding remainder, and
    every row can reach it."""
    if dt < 0:
        raise ConfigurationError("idle duration must be non-negative")
    f, l = flip_probability(dt, model), loss_probability(dt, model)
    stay, flip = (1 - f) * (1 - l), f * (1 - l)
    return np.array([[stay, flip, l], [flip, stay, l], [0.0, 0.0, 1.0]])


def simulate_idling_bit(
    idle_model: IdleErrorModel,
    times_ms: np.ndarray,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Error counts of n_trials unmeasured idling bits, read out destructively
    at each grid time (a lost atom reads as a coin toss).

    The trials are independent Markov chains on (F1, F2, vacant), so the
    numbers of trials in each state move on together: each grid step splits
    them over the next states in one multinomial draw by _idle_law, and the
    step's errors are the F2 trials plus a fresh Binomial(vacant, 1/2) coin
    count.  The cost grows with the grid, not with n_trials.  A decreasing
    grid is rejected before any draw."""
    times_ms = np.asarray(times_ms, dtype=float)
    laws = [_idle_law(dt, idle_model) for dt in np.diff(times_ms, prepend=0.0)]
    at = np.array([n_trials, 0, 0], dtype=np.int64)  # trials in F1, F2, vacant
    errors = np.empty(len(times_ms), dtype=np.int64)
    for k, law in enumerate(laws):
        at = rng.multinomial(at, law).sum(axis=0)
        errors[k] = at[1] + rng.binomial(at[2], 0.5)
    return errors


def logical_lifetime(times_ms: np.ndarray, p_err: np.ndarray) -> SaturatingExpFit:
    """Fit p_err(t) = p_inf*(1 - exp(-t/tau)) and report the lifetime.

    The asymptote is constrained to p_inf <= 1/2: a binary state read out
    forever equilibrates to a fair coin, so larger values are unphysical.
    The lifetime is the fitted tau, where the curve reaches p_inf*(1-1/e).
    """
    return fit_saturating_exponential(times_ms, p_err, p_inf_max=0.5)
