"""The abstract-code kernels against the per-round reference loop and the
exact survivor law.

simulate_code_abstract draws each atom's loss round once and each round's
vote error once from the exact round hazard.  tests/oracles.py keeps the
round-by-round loop it replaced (one flip and one loss draw per atom, one
coin per trial and round); here both run the same configurations and every
per-round rate and survivor frequency must agree within K standard errors
of the difference.

round_counts samples the same ensemble as a survivor-count chain (one
multinomial draw per round over all trials) and reduces it to (clean,
erring) rounds per survivor count.  Its round totals N_s match the exact
mean from tests/oracles.py and the trace's survivor counts on independent
streams within K standard errors, and are exact where loss is 0 or 1; its
error rates agree with the trace's within K standard errors.  sample_chain,
the chain step both count kernels share, keeps every trial and never moves
one to a state of probability 0.
"""

import itertools
import math

import numpy as np
import pytest

from cavreg import round_counts, round_hazard, simulate_code_abstract
from cavreg.repcode import _survivor_law, sample_chain
from cavreg.streams import stream

from oracles import (
    repcode_expected_survivor_rounds,
    repcode_reference_trace,
    repcode_round_hazard,
)

K = 4.5
TRIALS = 50_000
ROUNDS = 8
FLIP = 0.2  # ties and majorities both common at every survivor count
CASES = list(itertools.product((1, 3, 5), (0.0, 0.037, 0.3, 1.0)))  # (distance, loss)


def _rates_agree(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Per column, whether two frequencies over n trials each agree within
    K pooled standard errors of their difference."""
    pooled = (a + b) / 2
    se = np.sqrt(pooled * (1 - pooled) * 2 / n)
    return np.abs(a - b) <= K * se


@pytest.mark.parametrize("distance, loss", CASES)
def test_kernel_matches_reference_loop(distance, loss):
    kernel = simulate_code_abstract(distance, FLIP, loss, ROUNDS, TRIALS, stream(31, distance))
    ref = repcode_reference_trace(distance, FLIP, loss, ROUNDS, TRIALS, stream(32, distance))
    assert kernel.new_error.shape == kernel.survivors.shape == (TRIALS, ROUNDS)
    assert kernel.survivors.dtype == ref.survivors.dtype
    for name in ("new_error", "err_vs_initial"):
        ok = _rates_agree(
            getattr(kernel, name).mean(axis=0), getattr(ref, name).mean(axis=0), TRIALS
        )
        assert ok.all(), (name, np.flatnonzero(~ok))
    for s in range(distance + 1):
        ok = _rates_agree(
            (kernel.survivors == s).mean(axis=0), (ref.survivors == s).mean(axis=0), TRIALS
        )
        assert ok.all(), ("survivors", s, np.flatnonzero(~ok))


def test_kernel_survivors_follow_the_loss_law():
    # each atom is alive in round r with probability (1 - loss)**(r + 1)
    d, loss = 5, 0.3
    trace = simulate_code_abstract(d, FLIP, loss, ROUNDS, TRIALS, stream(33))
    alive = (1 - loss) ** np.arange(1, ROUNDS + 1)
    mean = trace.survivors.mean(axis=0)
    se = np.sqrt(d * alive * (1 - alive) / TRIALS)
    assert (np.abs(mean - d * alive) <= K * se).all()


@pytest.mark.parametrize("distance", range(1, 10))
def test_round_hazard_matches_oracle(distance):
    for p in (0.0, 1e-3, 0.02, 0.09, 0.2, 0.5, 0.7, 1.0):
        h = round_hazard(distance, p)
        assert h.shape == (distance + 1,)
        for s in range(distance + 1):
            assert math.isclose(h[s], repcode_round_hazard(s, p), rel_tol=0, abs_tol=1e-12)



@pytest.mark.parametrize("distance, loss", CASES)
def test_kernel_survivors_are_the_loss_prefix(distance, loss):
    # the loss model as first written: alive in round r iff u < (1 - loss)**(r + 1)
    u = stream(34, distance).random((TRIALS, distance))
    alive = u[:, :, None] < (1.0 - loss) ** np.arange(1, ROUNDS + 1)  # (trial, atom, round)
    trace = simulate_code_abstract(distance, FLIP, loss, ROUNDS, TRIALS, stream(34, distance))
    assert (trace.survivors == alive.sum(axis=1)).all()


def test_lossless_trace_keeps_every_atom_for_any_round_count():
    trace = simulate_code_abstract(3, FLIP, 0.0, 300, 10, stream(35))
    assert trace.survivors.shape == (10, 300)
    assert (trace.survivors == 3).all()


@pytest.mark.parametrize("distance, loss", itertools.product((1, 3, 5), (0.037, 0.3)))
def test_round_counts_survivor_rounds_match_exact_mean(distance, loss):
    # the mean N_s over independent draws against the closed form
    n, draws = 1000, 200
    n_rounds = np.array([
        round_counts(distance, FLIP, loss, ROUNDS, n, stream(41, distance, i)).sum(axis=1)
        for i in range(draws)
    ])
    exact = repcode_expected_survivor_rounds(distance, loss, ROUNDS, n)
    se = n_rounds.std(axis=0, ddof=1) / math.sqrt(draws)
    assert (np.abs(n_rounds.mean(axis=0) - exact) <= K * se).all(), (n_rounds.mean(axis=0), exact)


@pytest.mark.parametrize("distance, loss", CASES)
def test_round_counts_survivor_rounds_match_trace(distance, loss):
    # independent streams; the per-trial rounds with s survivors set the spread
    counts = round_counts(distance, FLIP, loss, ROUNDS, TRIALS, stream(42, distance))
    assert counts.shape == (distance + 1, 2) and (counts >= 0).all()
    n_counts = counts.sum(axis=1)
    trace = simulate_code_abstract(distance, FLIP, loss, ROUNDS, TRIALS, stream(43, distance))
    per_trial = np.stack([(trace.survivors == s).sum(axis=1) for s in range(distance + 1)])
    se = np.sqrt(2 * TRIALS * per_trial.var(axis=1))
    assert n_counts.sum() == ROUNDS * TRIALS
    assert (np.abs(n_counts - per_trial.sum(axis=1)) <= K * se).all()


@pytest.mark.parametrize("distance", (1, 3, 5))
def test_round_counts_loss_edges_are_exact(distance):
    # no loss keeps every atom in every round; certain loss empties the first
    for loss, survivors in ((0.0, distance), (1.0, 0)):
        counts = round_counts(distance, FLIP, loss, ROUNDS, TRIALS, stream(44, distance))
        expected = np.zeros(distance + 1, dtype=int)
        expected[survivors] = ROUNDS * TRIALS
        assert counts.sum(axis=1).tolist() == expected.tolist()


@pytest.mark.parametrize("distance, loss", CASES)
def test_survivor_law_rows_are_binomial_with_a_reachable_empty_register(distance, loss):
    # sample_chain gives a row's rounding remainder to state 0, the empty
    # register, so every row must reach it
    law = _survivor_law(distance, loss)
    q = 1.0 - loss
    for s in range(distance + 1):
        for j in range(distance + 1):
            exact = math.comb(s, j) * q**j * (1 - q) ** (s - j) if j <= s else 0.0
            assert math.isclose(law[s, j], exact, rel_tol=1e-12, abs_tol=0.0)
    if 0.0 < loss < 1.0:
        assert (law[:, 0] > 0).all()


@pytest.mark.parametrize("distance, loss", CASES)
def test_sample_chain_conserves_trials_and_never_revives_an_atom(distance, loss):
    # no trial enters a state its row gives probability 0: the trials with
    # at least s survivors never rise, for every s
    law = _survivor_law(distance, loss)
    start = np.zeros(distance + 1, dtype=np.int64)
    start[distance] = TRIALS
    for seed in range(5):
        counts = sample_chain(start, [law] * ROUNDS, stream(45, distance, seed))
        assert counts.shape == (ROUNDS, distance + 1) and counts.dtype == np.int64
        assert (counts >= 0).all() and (counts.sum(axis=1) == TRIALS).all()
        at_least = np.cumsum(np.vstack([start, counts])[:, ::-1], axis=1)
        assert (np.diff(at_least, axis=0) <= 0).all()


def test_sample_chain_gives_a_short_row_remainder_to_state_0():
    # row 1 sums to 1/2 and never names state 0, yet its shortfall lands there
    counts = sample_chain([0, 1000], [np.array([[1.0, 0.0], [0.0, 0.5]])], stream(46))
    assert counts.sum() == 1000 and 0 < counts[0, 0] < 1000


@pytest.mark.parametrize("distance, loss", CASES)
def test_round_counts_error_rates_match_trace(distance, loss):
    # independent streams; each survivor count's error rate within K pooled stderr
    clean, erring = round_counts(distance, FLIP, loss, ROUNDS, TRIALS, stream(37, distance)).T
    trace = simulate_code_abstract(distance, FLIP, loss, ROUNDS, TRIALS, stream(38, distance))
    n_trace = np.bincount(trace.survivors.ravel(), minlength=distance + 1)
    k_trace = np.bincount(trace.survivors.ravel(), weights=trace.new_error.ravel(),
                          minlength=distance + 1)
    n_counts = clean + erring
    for s in range(distance + 1):
        if min(n_counts[s], n_trace[s]) < 1000:
            continue
        a, b = erring[s] / n_counts[s], k_trace[s] / n_trace[s]
        pooled = (erring[s] + k_trace[s]) / (n_counts[s] + n_trace[s])
        se = math.sqrt(pooled * (1 - pooled) * (1 / n_counts[s] + 1 / n_trace[s]))
        assert abs(a - b) <= K * se, (s, a, b, se)


@pytest.mark.parametrize("distance", (1, 3, 5))
def test_round_counts_flip_edges_are_exact(distance):
    # with no flips no voting round errs, with every vote flipped each one does;
    # a round with no survivors is a coin toss either way
    for flip, wrong in ((0.0, 0), (1.0, 1)):
        clean, erring = round_counts(distance, flip, 0.3, ROUNDS, TRIALS, stream(39, distance)).T
        n = clean + erring
        assert erring[1:].tolist() == (wrong * n[1:]).tolist()
        se = math.sqrt(0.25 / n[0])
        assert abs(erring[0] / n[0] - 0.5) <= K * se


@pytest.mark.parametrize("distance", (1, 3, 5))
def test_trace_flip_edges_are_exact(distance):
    # per trial: with no flips no voting round errs, with every vote flipped
    # each one does; the empty rounds are coin tosses either way
    for flip, wrong in ((0.0, False), (1.0, True)):
        trace = simulate_code_abstract(distance, flip, 0.3, ROUNDS, TRIALS, stream(40, distance))
        voting = trace.survivors > 0
        assert (trace.new_error[voting] == wrong).all()
        empty = trace.new_error[~voting]
        assert abs(empty.mean() - 0.5) <= K * math.sqrt(0.25 / empty.size)
