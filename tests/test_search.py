import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavreg import (
    F1,
    F2,
    ConfigurationError,
    GroupCheckNoise,
    Placement,
    SearchProblem,
    Strategy,
    expected_cost,
    group_check,
    run_search,
    uniform_register,
)
from cavreg.config import load_config
from cavreg.search import (
    _expected_splits,
    _search_one,
    bright_bits,
    enumerate_mean_intervals,
    placements,
    sample_register,
    site_mask,
)

from oracles import search_transcript, transcript_supports

ALL_DARK_8 = uniform_register(8, F1)


def test_noisy_group_check_needs_a_stream():
    bits = bright_bits(uniform_register(3, F2))
    with pytest.raises(ConfigurationError, match="random stream"):
        group_check(bits, 1, noise=GroupCheckNoise(false_positive=0.1))


def test_search_rejects_a_register_over_64_sites():
    with pytest.raises(ConfigurationError, match="at most 64 sites"):
        run_search(uniform_register(65, F1), Strategy.DETERMINISTIC_SEQUENTIAL)


def _single_bright(n, k):
    register = uniform_register(n, F1)
    register[k] = F2
    return register


def _check(register, subset, rng=None, noise=GroupCheckNoise()):
    return group_check(bright_bits(register), site_mask(subset, len(register)), rng, noise)


def _sites(result):
    return set(np.flatnonzero(result.found).tolist())


def test_group_check_basics():
    assert not _check(ALL_DARK_8, range(8))
    assert _check(_single_bright(8, 3), range(8))
    assert _check(_single_bright(8, 3), (3,))
    assert not _check(_single_bright(8, 3), (2, 4))
    # set semantics: order never matters
    assert _check(_single_bright(8, 3), (7, 3, 0)) == _check(
        _single_bright(8, 3), (0, 3, 7)
    )
    with pytest.raises(ConfigurationError):
        _check(ALL_DARK_8, ())
    with pytest.raises(ConfigurationError):
        _check(ALL_DARK_8, (9,))


def test_group_check_noise_rates(rng):
    noise = GroupCheckNoise(false_positive=0.3, false_negative=0.2)
    n = 20_000
    fp = sum(_check(ALL_DARK_8, (0, 1), rng, noise) for _ in range(n)) / n
    assert abs(fp - 0.3) < 4 * math.sqrt(0.3 * 0.7 / n)
    fn = sum(
        not _check(_single_bright(8, 0), (0, 1), rng, noise) for _ in range(n)
    ) / n
    assert abs(fn - 0.2) < 4 * math.sqrt(0.2 * 0.8 / n)


# the shipped [search] model has both rates zero: it is the noiseless check,
# which draws nothing, needs no random stream and is served by the cache
ZERO_NOISE = load_config().build(GroupCheckNoise, "search")
BATCH_6 = np.where(np.random.default_rng(3).random((40, 6)) < 0.3, F2, F1).astype(np.int8)


def test_config_zero_noise_needs_no_rng():
    bits = bright_bits(BATCH_6)
    assert np.array_equal(group_check(bits, 0b101, noise=ZERO_NOISE), group_check(bits, 0b101))
    for strategy in Strategy:
        for codes in (BATCH_6, BATCH_6[0]):
            with_model = run_search(codes, strategy, noise=ZERO_NOISE)
            default = run_search(codes, strategy)
            assert np.array_equal(with_model.found, default.found)
            assert np.array_equal(with_model.intervals_used, default.intervals_used)


def test_config_zero_noise_draws_nothing():
    for strategy in Strategy:
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        group_check(bright_bits(BATCH_6), 0b11, rng, ZERO_NOISE)
        run_search(BATCH_6, strategy, rng, noise=ZERO_NOISE)
        run_search(BATCH_6, strategy, ref)
        assert rng.random() == ref.random()


def test_config_zero_noise_one_register_search_is_cached():
    for strategy in Strategy:
        rng = np.random.default_rng(5)
        run_search(BATCH_6[1], strategy, rng, noise=ZERO_NOISE)
        hits = _search_one.cache_info().hits
        run_search(BATCH_6[1], strategy, rng, noise=ZERO_NOISE)
        assert _search_one.cache_info().hits == hits + 1


def test_all_dark_global_check_is_one_interval():
    res = run_search(ALL_DARK_8, Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL)
    assert res.intervals_used == 1
    assert _sites(res) == set()


def test_single_bright_global_check_costs_one_plus_n():
    res = run_search(_single_bright(10, 4), Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL)
    assert res.intervals_used == 11
    assert _sites(res) == {4}


def test_sequential_always_costs_n():
    for reg in (ALL_DARK_8, _single_bright(8, 5)):
        res = run_search(reg, Strategy.DETERMINISTIC_SEQUENTIAL)
        assert res.intervals_used == 8


def test_partitioned_single_bright_n8_costs_four():
    # elimination bisection: 1 global check + log2(8) splits, any position
    for k in range(8):
        res = run_search(_single_bright(8, k), Strategy.PARTITIONED_BINARY)
        assert res.intervals_used == 4
        assert _sites(res) == {k}


def test_expected_cost_closed_forms():
    assert expected_cost(SearchProblem(10, 0.0), Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL) == 1.0
    assert expected_cost(SearchProblem(10, 0.1), Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL) == pytest.approx(2.0)
    assert expected_cost(SearchProblem(8, 0.5), Strategy.PARTITIONED_BINARY) == pytest.approx(2.5)
    assert expected_cost(SearchProblem(7, 0.3), Strategy.DETERMINISTIC_SEQUENTIAL) == 7.0
    with pytest.raises(ConfigurationError):
        expected_cost(
            SearchProblem(8, 0.5, Placement.INDEPENDENT_PER_SITE),
            Strategy.PARTITIONED_BINARY,
        )


def test_unknown_strategy_is_rejected():
    # a value that is no Strategy reaches neither a search nor a closed form
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        run_search(ALL_DARK_8, "sequential")
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        expected_cost(SearchProblem(8, 0.5), "sequential")


def test_enumeration_refuses_the_independent_placement():
    with pytest.raises(ConfigurationError, match="at-most-one"):
        enumerate_mean_intervals(SearchProblem(8, 0.5, Placement.INDEPENDENT_PER_SITE),
                                 Strategy.DETERMINISTIC_SEQUENTIAL)


def test_expected_splits_recursion():
    # powers of two give exactly log2(n); others sit below ceil(log2 n)
    assert _expected_splits(8) == pytest.approx(3.0)
    assert _expected_splits(4) == pytest.approx(2.0)
    assert _expected_splits(10) == pytest.approx(3.4)
    for n in range(2, 11):
        assert _expected_splits(n) <= math.ceil(math.log2(n)) + 1e-12


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n", range(1, 11))
def test_oracle_equivalence_enumeration(strategy, n):
    # exact enumeration of the empty and all single-bright placements
    # reproduces the closed form with zero error
    problem = SearchProblem(n, 0.3)
    assert enumerate_mean_intervals(problem, strategy) == pytest.approx(
        expected_cost(problem, strategy), abs=1e-12
    )


def test_noiseless_search_is_always_correct(rng):
    for trial in range(300):
        n = int(rng.integers(1, 11))
        problem = SearchProblem(n, 0.5)
        reg = sample_register(problem, rng)
        truth = set(np.flatnonzero(reg == F2))
        for strategy in Strategy:
            res = run_search(reg, strategy, rng)
            assert _sites(res) == truth


def test_sample_register_draws_one_uniform_per_site_in_order():
    # independent placement: site i is bright iff the i-th uniform draw < p
    problem = SearchProblem(10, 0.4, Placement.INDEPENDENT_PER_SITE)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(20):
        expected = [F2 if ref.random() < problem.p else F1 for _ in range(problem.n)]
        assert sample_register(problem, rng).tolist() == expected


def test_sample_register_one_at_a_time_matches_batch():
    # one register bisects the cached edges, a batch searchsorts them; both
    # take one uniform per register
    for n in (1, 3, 10):
        for p in (0.0, 0.3, 1.0):
            problem = SearchProblem(n, p)
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            one = np.array([sample_register(problem, rng) for _ in range(500)])
            assert np.array_equal(one, sample_register(problem, ref, 500))
            assert rng.bit_generator.state == ref.bit_generator.state


def test_cached_one_register_search_matches_batch(rng):
    # a single (n,) register is served from a cache; a batch always runs
    registers = [placements(n) for n in range(1, 11)]
    registers += [np.where(rng.random((50, n)) < 0.4, F2, F1).astype(np.int8) for n in (2, 5, 10)]
    for batch in registers:
        for strategy in Strategy:
            for at_most_one in (True, False):
                full = run_search(batch, strategy, at_most_one=at_most_one)
                for _ in range(2):  # the second pass is served from the cache
                    for reg, found, used in zip(batch, full.found, full.intervals_used):
                        one = run_search(reg, strategy, at_most_one=at_most_one)
                        assert np.array_equal(one.found, found)
                        assert one.intervals_used == used
                        # the caller owns what it gets back
                        one.found[...] = ~one.found
                        if isinstance(one.intervals_used, np.ndarray):
                            one.intervals_used += 100


def test_multi_bright_partitioned_correct_without_assumption(rng):
    for trial in range(300):
        n = int(rng.integers(2, 11))
        problem = SearchProblem(n, 0.4, Placement.INDEPENDENT_PER_SITE)
        reg = sample_register(problem, rng)
        truth = set(np.flatnonzero(reg == F2))
        res = run_search(reg, Strategy.PARTITIONED_BINARY, rng, at_most_one=False)
        assert _sites(res) == truth
        found, transcript = search_transcript(
            reg.tolist(), Strategy.PARTITIONED_BINARY, at_most_one=False
        )
        assert found == truth
        assert transcript_supports(found, transcript)


def test_transcript_supports_single_bright():
    for n in range(1, 11):
        for k in range(n):
            for strategy in Strategy:
                found, transcript = search_transcript(_single_bright(n, k).tolist(), strategy)
                assert transcript_supports(found, transcript)
                res = run_search(_single_bright(n, k), strategy)
                assert _sites(res) == found
                assert res.intervals_used == len(transcript)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    p=st.floats(min_value=0.0, max_value=0.999),
)
def test_dominance_property(n, p):
    # 1 + p*n < n exactly when p < 1 - 1/n; the global check only pays off
    # for registers biased below that point
    problem = SearchProblem(n, p)
    global_cost = expected_cost(problem, Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL)
    partitioned = expected_cost(problem, Strategy.PARTITIONED_BINARY)
    if p < 1.0 - 1.0 / n:
        assert global_cost < n
    assert partitioned <= global_cost + 1e-12


def test_monte_carlo_matches_closed_form(rng):
    trials = 3000
    for n in (3, 8):
        for p in (0.0, 0.2, 1.0):
            problem = SearchProblem(n, p)
            costs = []
            for _ in range(trials):
                reg = sample_register(problem, rng)
                costs.append(
                    run_search(
                        reg, Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL, rng
                    ).intervals_used
                )
            costs = np.asarray(costs, dtype=float)
            expected = expected_cost(problem, Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL)
            if p in (0.0, 1.0):
                assert costs.mean() == expected
            else:
                se = costs.std(ddof=1) / math.sqrt(trials)
                assert abs(costs.mean() - expected) < 4 * se
