"""Independent oracles for the test suite.

Everything here is computed by enumeration, dynamic programming or the
reference loops the array kernels replaced, never by the simulation paths
under test.
"""

from __future__ import annotations

import itertools
import math
from math import comb, exp

import numpy as np

from cavreg.photons import IntervalOutcome
from cavreg.register import F1, F2, VACANT, idle
from cavreg.repcode import CodeTrace
from cavreg.search import Strategy


def poisson_pmf(k: int, lam: float) -> float:
    return exp(-lam) * lam**k / math.factorial(k)


def poisson_log_pmf(k: int, lam: float) -> float:
    """log Poisson(lam; k) from the log-gamma function, for any mean."""
    if lam == 0.0:
        return 0.0 if k == 0 else -math.inf
    return k * math.log(lam) - lam - math.lgamma(k + 1)


def adaptive_outcome_enumeration(
    mean_full: float, n_sub: int, threshold: int, kmax: int = 80
) -> dict[tuple[int, int], float]:
    """Exact law of (stop index, final counts) of the cumulative-Poisson
    stopping rule.

    Tracks the probability of every below-threshold cumulative count after
    each sub-interval; a trial that crosses in sub-interval n lands in cell
    (n, total), one that never crosses in cell (n_sub, total).
    """
    lam = mean_full / n_sub
    below = {c: 0.0 for c in range(threshold)}
    below[0] = 1.0
    cells: dict[tuple[int, int], float] = {}
    for n in range(1, n_sub + 1):
        nxt = {c: 0.0 for c in range(threshold)}
        for c, pr in below.items():
            if pr == 0.0:
                continue
            for k in range(kmax):
                tot = c + k
                if tot >= threshold:
                    cells[n, tot] = cells.get((n, tot), 0.0) + pr * poisson_pmf(k, lam)
                else:
                    nxt[tot] += pr * poisson_pmf(k, lam)
        below = nxt
    # ran all sub-intervals without crossing
    for c, pr in below.items():
        cells[n_sub, c] = cells.get((n_sub, c), 0.0) + pr
    return cells


def adaptive_stopping_enumeration(
    mean_full: float, n_sub: int, threshold: int, kmax: int = 80
) -> dict:
    """E[stop index] and E[final counts] of the cumulative-Poisson stopping
    rule, summed over its enumerated law."""
    cells = adaptive_outcome_enumeration(mean_full, n_sub, threshold, kmax)
    return {
        "expected_stop_index": sum(p * n for (n, _), p in cells.items()),
        "expected_counts": sum(p * c for (_, c), p in cells.items()),
    }


def adaptive_interval_reference(
    codes: np.ndarray, model, rng: np.random.Generator
) -> IntervalOutcome:
    """Reference adaptive sampler over a trial axis: one Poisson draw per
    sub-interval for the trials still probing, each stopping at the first
    boundary where its cumulative count reaches the threshold."""
    counts = np.zeros(codes.shape, dtype=np.int64)
    probed = np.full(codes.shape, model.n_sub)  # sub-intervals with the probe on
    # the trials still probing: their indices, running counts and means
    live, running = np.arange(codes.size), counts.copy()
    lam = np.where(codes == F2, model.mean_full(True), model.mean_full(False)) / model.n_sub
    for k in range(1, model.n_sub + 1):
        if live.size == 0:
            break
        running = running + rng.poisson(lam)
        crossed = running >= model.threshold_counts
        if crossed.any():
            counts[live[crossed]], probed[live[crossed]] = running[crossed], k
            live, running, lam = live[~crossed], running[~crossed], lam[~crossed]
    counts[live] = running
    return IntervalOutcome(counts, probed * model.sub_interval_us, counts >= model.threshold_counts)


def majority_flip_probability_enumeration(d: int, p: float) -> float:
    """P(majority of d bits flips) by brute-force enumeration of all 2^d
    flip patterns (no loss, odd d: no ties)."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=d):
        w = sum(pattern)
        prob = p ** w * (1 - p) ** (d - w)
        if 2 * w > d:
            total += prob
    return total


def repcode_round_hazard(s: int, flip_p: float) -> float:
    """Exact per-round logical error h(s) of the abstract repetition code
    given s surviving votes: a majority of flips, half of the ties, and a
    coin toss when no atom survives."""
    if s == 0:
        return 0.5
    tot = 0.0
    for k in range(s + 1):
        pk = comb(s, k) * flip_p**k * (1 - flip_p) ** (s - k)
        if 2 * k > s:
            tot += pk
        elif 2 * k == s:
            tot += 0.5 * pk
    return tot


def repcode_expected_survivor_rounds(
    d: int, loss_p: float, rounds: int, n_trials: int
) -> list[float]:
    """E[N_s], s = 0..d: the expected rounds with s survivors over n_trials
    trials.  Each atom is alive in round r with probability q**(r + 1),
    q = 1 - loss_p, independently of the others."""
    q = 1.0 - loss_p
    return [
        n_trials * sum(
            comb(d, s) * q ** ((r + 1) * s) * (1 - q ** (r + 1)) ** (d - s)
            for r in range(rounds)
        )
        for s in range(d + 1)
    ]


def repcode_reference_trace(
    distance: int,
    flip_p: float,
    loss_p: float,
    rounds: int,
    n_trials: int,
    rng: np.random.Generator,
) -> CodeTrace:
    """Reference abstract-mode ensemble: round by round, one flip and one
    loss draw per atom and a coin per trial, as run_round does per trial."""
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
    return CodeTrace(new_error, err_vs_initial, survivors)


def repcode_exact_error_curve(
    d: int, flip_p: float, loss_p: float, rounds: int
) -> np.ndarray:
    """Exact cumulative logical-error curve for the abstract repetition-code
    dynamics, via the survivor-count Markov chain.

    The resolved logical state performs a symmetric Markov chain with
    round hazard h(s) given s surviving votes, so
    P(err after r rounds) = (1 - E[prod_k (1 - 2 h(s_k))]) / 2.
    """
    q = 1.0 - loss_p

    transition = np.zeros((d + 1, d + 1))
    for s in range(d + 1):
        for sp in range(s + 1):
            transition[s, sp] = comb(s, sp) * q**sp * (1 - q) ** (s - sp)
    damp = np.array([1.0 - 2.0 * repcode_round_hazard(s, flip_p) for s in range(d + 1)])

    w = np.zeros(d + 1)
    w[d] = 1.0
    curve = np.empty(rounds)
    for r in range(rounds):
        w = (w @ transition) * damp
        curve[r] = 0.5 * (1.0 - w.sum())
    return curve


def idling_bit_error_mean(t_ms: float, tau_depump_ms: float, tau_vacuum_ms: float) -> float:
    """Exact error probability of an idling bit read out at t_ms: a survivor
    has relaxed toward the equal mixture, (1 - exp(-t/tau_depump))/2, and a
    lost atom, with probability 1 - exp(-t/tau_vacuum), reads as a coin."""
    flip = 0.5 * (1.0 - exp(-t_ms / tau_depump_ms))
    lost = 1.0 - exp(-t_ms / tau_vacuum_ms)
    return (1.0 - lost) * flip + 0.5 * lost


def idling_bit_reference(model, times_ms, n_trials: int, rng: np.random.Generator) -> np.ndarray:
    """(n_trials, len(times_ms)) per-trial errors of idling bits stepped one
    trial at a time through register.idle, with a fresh coin for a lost atom
    at every read-out: the loop the idling-bit count chain replaced."""
    states = np.full(n_trials, F1, dtype=np.int8)
    errors = np.empty((n_trials, len(times_ms)), dtype=bool)
    for k, dt in enumerate(np.diff(np.asarray(times_ms, dtype=float), prepend=0.0)):
        states = idle(states, dt, model, rng)
        coin = rng.random(n_trials) < 0.5
        errors[:, k] = np.where(states == VACANT, coin, states != F1)
    return errors


def compounded_depump_error(
    exposures: int, per_exposure: float, infid_f2: float, infid_f1: float
) -> float:
    """P(bright-prepared atom reads dark) after a number of independent
    hidden-depump exposures: survive all bright and misread, or depump at
    some point and read correctly dark."""
    survive = (1.0 - per_exposure) ** exposures
    return survive * infid_f2 + (1.0 - survive) * (1.0 - infid_f1)


# --------------------------------------------------------------------------
# Transcript-level reference for the sequential hidden readout: the
# per-trial scalar loop (one Python step per site, interval and depump
# draw) that the array kernels in cavreg.readout replaced.  It shares only
# the model objects with the library.


def _oracle_interval(bright: bool, photon, rng, adaptive: bool) -> tuple[int, float]:
    """(counts, duration_us) of one interval for a bright or dark emitter."""
    mean = photon.mean_full(bright)
    if not adaptive:
        return int(rng.poisson(mean)), photon.full_interval_us
    lam_sub = mean / photon.n_sub
    total = 0
    for k in range(1, photon.n_sub + 1):
        total += int(rng.poisson(lam_sub))
        if total >= photon.threshold_counts:
            return total, k * photon.sub_interval_us
    return total, photon.full_interval_us


def _oracle_measure(site, rates, photon, rng, adaptive, adaptive_loss_factor):
    """(inferred, post) for one site state None / 1 (F=1) / 2 (F=2)."""
    if site is None:
        hyper, _ = _oracle_interval(False, photon, rng, adaptive)
        occ, _ = _oracle_interval(False, photon, rng, adaptive)
    else:
        if site == 2:
            infidelity, loss = rates.infidelity_f2, rates.loss_f2
            if adaptive:
                loss = loss / adaptive_loss_factor
        else:
            infidelity, loss = rates.infidelity_f1, rates.loss_f1
        effective = site
        if rng.random() < infidelity:
            effective = 1 if site == 2 else 2
        hyper, _ = _oracle_interval(effective == 2, photon, rng, adaptive)
        occ, _ = _oracle_interval(True, photon, rng, adaptive)
    if occ < photon.threshold_counts:
        inferred = None
    else:
        inferred = 2 if hyper >= photon.threshold_counts else 1
    if site is None:
        return inferred, None
    return inferred, None if rng.random() < loss else effective


def sequential_readout_transcript(
    sites: list,
    target_order: list[int],
    p_hidden: float,
    rng,
    *,
    rates,
    photon,
    background_floor: float,
    adaptive_rounds: bool = False,
    adaptive: bool = True,
    adaptive_loss_factor: float = 4.5,
    rounds: int = 1,
    idle_intervals: int = 0,
    re_prepare: str = "bright",
) -> tuple[list[tuple], list]:
    """One trial of the sequential hidden readout.

    Sites are None (vacant), 1 (F=1) or 2 (F=2).  Returns the transcript,
    one (round, site, prepared, inferred) tuple per measurement, and the
    final site states."""
    sites = list(sites)
    believed_present = {i: True for i in target_order}
    transcript = []
    for round_index in range(rounds):
        for target in target_order:
            if adaptive_rounds and not believed_present[target]:
                continue
            prepared = sites[target]
            inferred, post = _oracle_measure(
                prepared, rates, photon, rng, adaptive, adaptive_loss_factor
            )
            sites[target] = post
            transcript.append((round_index, target, prepared, inferred))
            believed_present[target] = inferred is not None
            if post is not None and re_prepare == "bright":
                sites[target] = 2
            for j, s in enumerate(sites):
                if j != target and s == 2 and rng.random() < p_hidden:
                    sites[j] = 1
        for _ in range(idle_intervals):
            for j, s in enumerate(sites):
                if s == 2 and rng.random() < background_floor:
                    sites[j] = 1
    return transcript, sites


# --------------------------------------------------------------------------
# Transcript-level reference for the adaptive search: the recursive
# per-register search (one Python call per group check) that the bitmask
# kernel in cavreg.search replaced.  Sites are 1 (F=1) or 2 (F=2); it shares
# only the Strategy and GroupCheckNoise model objects with the library.


def search_transcript(
    sites: list, strategy, rng=None, *, at_most_one: bool = True, noise=None
) -> tuple[set[int], list[tuple[tuple[int, ...], bool]]]:
    """One register's search: the sites reported bright and the transcript,
    one (subset, outcome) pair per group check in the order made."""
    transcript: list[tuple[tuple[int, ...], bool]] = []
    found: set[int] = set()

    def check(subset: tuple[int, ...]) -> bool:
        outcome = any(sites[i] == 2 for i in subset)
        if noise is not None:
            u = rng.random()
            outcome = u >= noise.false_negative if outcome else u < noise.false_positive
        transcript.append((subset, outcome))
        return outcome

    all_sites = tuple(range(len(sites)))
    if strategy is Strategy.DETERMINISTIC_SEQUENTIAL:
        found = {i for i in all_sites if check((i,))}
    elif strategy is Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL:
        if check(all_sites):
            found = {i for i in all_sites if check((i,))}
    else:

        def locate(subset: tuple[int, ...]) -> None:
            # subset is known (or inferred) to contain at least one bright atom
            if len(subset) == 1:
                found.add(subset[0])
                return
            half = (len(subset) + 1) // 2
            left, right = subset[:half], subset[half:]
            if check(left):
                locate(left)
                if not at_most_one and check(right):
                    locate(right)
            else:
                locate(right)

        if check(all_sites):
            locate(all_sites)
    return found, transcript


def transcript_supports(found: set[int], transcript: list) -> bool:
    """Check that every reported bright site is backed by the transcript:
    either a positive singleton check, or forced by elimination (a positive
    parent whose checked half was negative, narrowed down to the site)."""
    positives = {s for s, out in transcript if out}
    negatives = {s for s, out in transcript if not out}
    for site in found:
        if (site,) in positives:
            continue
        # elimination: some positive superset minus checked-negative parts
        # reduces to exactly this site
        supported = False
        for pos in positives:
            if site not in pos:
                continue
            remaining = set(pos)
            for neg in negatives:
                if set(neg) <= remaining:
                    remaining -= set(neg)
            if remaining == {site}:
                supported = True
                break
        if not supported:
            return False
    return True


def search_expected_cost(
    n: int, p: float, strategy, fp: float, fn: float, *, at_most_one: bool = True
) -> float:
    """Exact expected group checks of a search under false-positive rate fp
    and false-negative rate fn, for the at-most-one placement (all dark with
    probability 1 - p, else one bright atom uniform over the n sites).

    For each of the n + 1 placements every check outcome is enumerated
    with its probability (depth at most 1 + ceil(log2 n) for bisection);
    each check draws independently, so the expected cost of a branch is
    the outcome-weighted sum of its sub-branches."""
    def expected(bright: int | None) -> float:
        def positive(subset: tuple[int, ...]) -> float:
            return 1.0 - fn if bright in subset else fp

        def locate(subset: tuple[int, ...]) -> float:
            if len(subset) == 1:
                return 0.0
            half = (len(subset) + 1) // 2
            left, right = subset[:half], subset[half:]
            q = positive(left)
            cost = 1.0 + q * locate(left) + (1.0 - q) * locate(right)
            if not at_most_one:
                cost += q * (1.0 + positive(right) * locate(right))
            return cost

        all_sites = tuple(range(n))
        if strategy is Strategy.DETERMINISTIC_SEQUENTIAL:
            return float(n)
        if strategy is Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL:
            return 1.0 + positive(all_sites) * n
        return 1.0 + positive(all_sites) * locate(all_sites)

    return (1.0 - p) * expected(None) + p / n * sum(expected(k) for k in range(n))
