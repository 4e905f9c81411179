"""The bitmask search kernel against the per-register reference search.

run_search checks every register of a state-code array at once, one group
check per search level.  tests/oracles.py keeps the recursive per-register
search it replaced and the exact expected cost of noisy searches; here the
kernel must reproduce the reference register by register when checks are
noiseless, and agree with it within K standard errors when they are not.
"""

import math

import numpy as np
import pytest

from cavreg import F1, F2, GroupCheckNoise, Placement, SearchProblem, Strategy, run_search
from cavreg.harness import ExperimentSpec, SearchCostParams, run
from cavreg.search import expected_cost, sample_register
from cavreg.streams import stream

from oracles import search_expected_cost, search_transcript

K = 4.5
NOISE = GroupCheckNoise(false_positive=0.1, false_negative=0.15)


def _all_registers(n):
    """All 2^n dark/bright registers: row r is bright where r has a set bit."""
    bright = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return (F1 + bright).astype(np.int8)


def _at_most_one_registers(n):
    """The n + 1 at-most-one placements: one bright atom at each site, then none."""
    return F1 + np.eye(n + 1, n, dtype=np.int8)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n", range(1, 11))
def test_noiseless_kernel_matches_the_oracle_register_by_register(n, strategy):
    for registers, at_most_one in (
        (_all_registers(n), False),
        (_at_most_one_registers(n), True),
    ):
        res = run_search(registers, strategy, at_most_one=at_most_one)
        assert res.found.shape == registers.shape
        assert res.intervals_used.shape == registers.shape[:1]
        for register, found, used in zip(registers, res.found, res.intervals_used):
            want, transcript = search_transcript(
                register.tolist(), strategy, at_most_one=at_most_one
            )
            assert set(np.flatnonzero(found).tolist()) == want
            assert used == len(transcript)


def test_search_keeps_any_leading_trial_shape():
    registers = _all_registers(4).reshape(4, 4, 4)
    for strategy in Strategy:
        res = run_search(registers, strategy, at_most_one=False)
        flat = run_search(registers.reshape(16, 4), strategy, at_most_one=False)
        assert res.found.shape == (4, 4, 4) and res.intervals_used.shape == (4, 4)
        assert np.array_equal(res.found.reshape(16, 4), flat.found)
        assert np.array_equal(res.intervals_used.ravel(), flat.intervals_used)


def _pooled_z(a, b):
    """|mean(a) - mean(b)| in pooled standard errors of the difference."""
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    diff = abs(a.mean() - b.mean())
    return 0.0 if diff == 0.0 else diff / se if se > 0 else math.inf


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize(
    "placement, at_most_one",
    [(Placement.AT_MOST_ONE_BRIGHT, True), (Placement.INDEPENDENT_PER_SITE, False)],
)
@pytest.mark.parametrize("n", [3, 8])
def test_noisy_kernel_matches_the_oracle_statistically(n, placement, at_most_one, strategy):
    trials = 4000
    problem = SearchProblem(n, 0.3, placement)
    registers = sample_register(problem, stream(11, n), trials)

    res = run_search(registers, strategy, stream(12, n), at_most_one=at_most_one, noise=NOISE)
    oracle_rng = stream(13, n)
    oracle_found = np.zeros(registers.shape, dtype=bool)
    oracle_used = np.empty(trials)
    for t, register in enumerate(registers):
        found, transcript = search_transcript(
            register.tolist(), strategy, oracle_rng, at_most_one=at_most_one, noise=NOISE
        )
        oracle_found[t, list(found)] = True
        oracle_used[t] = len(transcript)

    assert _pooled_z(res.intervals_used.astype(float), oracle_used) < K
    for site in range(n):
        assert _pooled_z(res.found[:, site].astype(float), oracle_found[:, site].astype(float)) < K


def test_at_most_one_sampler_places_one_uniform_bright_atom():
    n, p, trials = 5, 0.4, 50_000
    registers = sample_register(SearchProblem(n, p), stream(21), trials)
    assert registers.dtype == np.int8 and registers.shape == (trials, n)
    bright = registers == F2
    assert np.all(bright.sum(axis=1) <= 1)
    assert np.all((registers == F1) | bright)
    for observed, rate in [(bright.any(axis=1).mean(), p)] + [
        (bright[:, site].mean(), p / n) for site in range(n)
    ]:
        assert abs(observed - rate) < K * math.sqrt(rate * (1 - rate) / trials)
    for q in (0.0, 1.0):
        one = sample_register(SearchProblem(n, q), stream(22), 1000)
        assert np.all((one == F2).sum(axis=1) == q)


def test_exact_noisy_oracle_reduces_to_the_closed_forms():
    for n in range(1, 11):
        for p in (0.0, 0.3, 1.0):
            problem = SearchProblem(n, p)
            # global check: 1 + n * P(the global check fires)
            fires = p * (1 - NOISE.false_negative) + (1 - p) * NOISE.false_positive
            assert search_expected_cost(
                n, p, Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL,
                NOISE.false_positive, NOISE.false_negative,
            ) == pytest.approx(1 + n * fires, abs=1e-12)
            for strategy in Strategy:
                assert search_expected_cost(n, p, strategy, 0.0, 0.0) == pytest.approx(
                    expected_cost(problem, strategy), abs=1e-12
                )


@pytest.mark.parametrize(
    "strategy", [Strategy.DETERMINISTIC_SEQUENTIAL, Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL]
)
@pytest.mark.parametrize("n", range(1, 9))
def test_independent_closed_form_is_the_mean_over_all_registers(n, strategy):
    # all 2^n registers of the independent placement, register r with k
    # bright sites weighted p^k (1 - p)^(n - k), under the noiseless search
    registers = _all_registers(n)
    k = np.count_nonzero(registers == F2, axis=1)
    costs = run_search(registers, strategy).intervals_used
    for p in (0.0, 0.1, 0.3, 0.5, 1.0):
        problem = SearchProblem(n, p, Placement.INDEPENDENT_PER_SITE)
        weights = p**k * (1 - p) ** (n - k)
        assert expected_cost(problem, strategy) == pytest.approx(weights @ costs, abs=1e-12)


def test_noisy_search_cost_rows_match_the_exact_oracle():
    params = SearchCostParams(noise=NOISE)
    result = run(ExperimentSpec("search_cost", params, trials=6000, master_seed=5))
    assert len(result.rows) == 135
    for row in result.rows:
        exact = search_expected_cost(
            row["n"], row["p"], Strategy(row["strategy"]),
            NOISE.false_positive, NOISE.false_negative,
        )
        if row["stderr"] == 0.0:
            assert row["mean_intervals"] == pytest.approx(exact, abs=1e-12)
        else:
            assert abs(row["mean_intervals"] - exact) < 4 * row["stderr"], row
        # the closed forms assume noiseless checks; only sequential costs N regardless
        if row["strategy"] == Strategy.DETERMINISTIC_SEQUENTIAL.value:
            assert row["analytic"] == row["n"]
        else:
            assert math.isnan(row["analytic"]), row
