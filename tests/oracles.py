"""Independent oracles for the test suite.

Everything here is computed by enumeration or dynamic programming, never by
the simulation paths under test.
"""

from __future__ import annotations

import itertools
import math
from math import comb, exp

import numpy as np


def poisson_pmf(k: int, lam: float) -> float:
    return exp(-lam) * lam**k / math.factorial(k)


def adaptive_stopping_enumeration(
    mean_full: float, n_sub: int, threshold: int, kmax: int = 80
) -> dict:
    """Exact distribution of the cumulative-Poisson stopping rule.

    Tracks the probability of every below-threshold cumulative count after
    each sub-interval and accumulates E[stop index] and E[final counts] by
    direct enumeration.
    """
    lam = mean_full / n_sub
    below = {c: 0.0 for c in range(threshold)}
    below[0] = 1.0
    e_stop = 0.0
    e_counts = 0.0
    p_stop_total = 0.0
    for n in range(1, n_sub + 1):
        nxt = {c: 0.0 for c in range(threshold)}
        for c, pr in below.items():
            if pr == 0.0:
                continue
            for k in range(kmax):
                pk = poisson_pmf(k, lam)
                tot = c + k
                if tot >= threshold:
                    e_stop += pr * pk * n
                    e_counts += pr * pk * tot
                    p_stop_total += pr * pk
                else:
                    nxt[tot] += pr * pk
        below = nxt
    # ran all sub-intervals without crossing
    for c, pr in below.items():
        e_stop += pr * n_sub
        e_counts += pr * c
    return {
        "expected_stop_index": e_stop,
        "expected_counts": e_counts,
        "prob_crossed": p_stop_total,
        "prob_never_crossed": sum(below.values()),
    }


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


def repcode_exact_new_error_full_distance(d: int, flip_p: float) -> float:
    """Per-round logical error conditioned on all d atoms present: losses are
    independent of flips, so the conditional law is the no-loss majority."""
    return majority_flip_probability_enumeration(d, flip_p)


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
        if total >= photon.threshold:
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
    if occ < photon.threshold:
        inferred = None
    else:
        inferred = 2 if hyper >= photon.threshold else 1
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
            if post is not None:
                if re_prepare == "bright":
                    sites[target] = 2
                elif re_prepare == "inferred" and inferred is not None:
                    sites[target] = inferred
            for j, s in enumerate(sites):
                if j != target and s == 2 and rng.random() < p_hidden:
                    sites[j] = 1
        for _ in range(idle_intervals):
            for j, s in enumerate(sites):
                if s == 2 and rng.random() < background_floor:
                    sites[j] = 1
    return transcript, sites
