import math
import time

import numpy as np
import pytest

from cavreg import (
    F1,
    F2,
    VACANT,
    ConfigurationError,
    IdleErrorModel,
    combined_idle_lifetime,
    fit_error_exponent,
    idle,
    logical_lifetime,
    majority_error_probability,
    sequential_array_readout,
    simulate_code_abstract,
    simulate_idling_bit,
)
from cavreg.harness import ErrorScalingParams, ExperimentSpec, LifetimeParams, run
from cavreg.readout import DepumpScalingParams
from cavreg.repcode import _idle_law, check_code, round_hazard

from oracles import (
    idling_bit_error_mean,
    idling_bit_reference,
    majority_flip_probability_enumeration,
    repcode_exact_error_curve,
    repcode_round_hazard,
)


def test_code_config_invariants():
    for params in (
        lambda: ErrorScalingParams(distances=[1, 2]),
        lambda: LifetimeParams(distances=[3, 2]),
    ):
        with pytest.raises(ConfigurationError, match="code.distances: 2 is not odd"):
            params()
    # each sweep entry is named by its own key
    with pytest.raises(ConfigurationError, match="code.flip_sweep: 1.5"):
        ErrorScalingParams(flip_sweep=[0.1, 1.5])
    with pytest.raises(ConfigurationError, match="code.per_round_flip: 1.5"):
        LifetimeParams(per_round_flip=1.5)
    with pytest.raises(ConfigurationError, match="code.per_round_loss: -0.1"):
        LifetimeParams(per_round_loss=-0.1)
    with pytest.raises(ConfigurationError, match="code.rounds: 0 is below 1"):
        ErrorScalingParams(rounds=0)



def test_check_code_accepts_the_range_edges():
    check_code(1, 1, {"code.per_round_flip": 0.0, "code.per_round_loss": 1.0})
    check_code(5, 300, {"code.per_round_flip": 1.0, "code.per_round_loss": 0.0})
    with pytest.raises(ConfigurationError, match="code.per_round_loss: 1.01"):
        check_code(3, 1, {"code.per_round_flip": 0.5, "code.per_round_loss": 1.01})


def test_two_survivor_tie_errs_at_the_flip_rate():
    # two votes err when both flip, and on the coin half the time when one does:
    # p**2 + p*(1 - p) = p, so a tie corrects nothing
    for p in (0.0, 0.05, 0.2, 0.5, 0.9, 1.0):
        assert round_hazard(3, p)[2] == pytest.approx(p, abs=1e-15)
        assert round_hazard(3, p)[1] == pytest.approx(p, abs=1e-15)


def test_empty_register_rounds_are_coin_tosses(rng):
    # every atom lost in the first round: each round votes on nothing
    n, rounds = 40_000, 4
    trace = simulate_code_abstract(3, 0.0, 1.0, rounds, n, rng)
    assert (trace.survivors == 0).all()
    se = math.sqrt(0.25 / n)
    assert (np.abs(trace.new_error.mean(axis=0) - 0.5) < 4 * se).all()
    assert (np.abs(trace.err_vs_initial.mean(axis=0) - 0.5) < 4 * se).all()


def test_majority_formula_matches_enumeration():
    for d in (1, 3, 5):
        for p in (0.02, 0.09, 0.3):
            assert majority_error_probability(d, p) == pytest.approx(
                majority_flip_probability_enumeration(d, p), abs=1e-12
            )
    assert majority_error_probability(3, 0.09) == pytest.approx(0.022842)
    assert majority_error_probability(5, 0.1) == pytest.approx(0.00856)


def test_no_loss_round_errors_match_binomial(rng):
    n = 100_000
    for d, p in ((3, 0.09), (5, 0.1)):
        trace = simulate_code_abstract(d, p, 0.0, 1, n, rng)
        rate = trace.new_error[:, 0].mean()
        expected = majority_flip_probability_enumeration(d, p)
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) < 3 * se


def test_monotone_distance_in_exact_formula():
    for p in np.linspace(0.01, 0.49, 25):
        assert majority_error_probability(5, p) <= majority_error_probability(3, p)
        assert majority_error_probability(3, p) <= majority_error_probability(1, p)


def test_survivors_non_increasing(rng):
    trace = simulate_code_abstract(5, 0.1, 0.15, 12, 2000, rng)
    assert (np.diff(trace.survivors, axis=1) <= 0).all()


def test_coin_toss_limit(rng):
    # heavy loss: every trial eventually empties and the error saturates at 1/2
    trace = simulate_code_abstract(3, 0.05, 0.3, 50, 20_000, rng)
    final = trace.err_vs_initial[:, -1].mean()
    assert abs(final - 0.5) < 4 * math.sqrt(0.25 / 20_000)
    assert trace.survivors[:, -1].max() == 0


def test_d1_identity_distribution(rng):
    # d=1 logical trace is distributionally the single-bit flip chain
    n, rounds, p = 50_000, 10, 0.09
    trace = simulate_code_abstract(1, p, 0.0, rounds, n, rng)
    flips = rng.random((n, rounds)) < p
    direct = np.logical_xor.accumulate(flips, axis=1)
    # two-sample chi-square on the first-error round histogram
    def first_error_hist(err):
        any_err = err.any(axis=1)
        first = np.where(any_err, err.argmax(axis=1), rounds)
        return np.bincount(first, minlength=rounds + 1)

    h1 = first_error_hist(trace.err_vs_initial)
    h2 = first_error_hist(direct)
    from scipy.stats import chi2_contingency

    _, pval, _, _ = chi2_contingency(np.vstack([h1, h2]))
    assert pval > 0.01


def test_vectorized_curve_matches_exact_dp(rng):
    # Fig.-5 parameters against the survivor-chain dynamic program
    d, p, loss, rounds, trials = 3, 0.09, 0.037, 17, 60_000
    trace = simulate_code_abstract(d, p, loss, rounds, trials, rng)
    exact = repcode_exact_error_curve(d, p, loss, rounds)
    for r in range(rounds):
        observed = trace.err_vs_initial[:, r].mean()
        se = math.sqrt(exact[r] * (1 - exact[r]) / trials)
        assert abs(observed - exact[r]) < 4 * se


def _error_scaling_rows(post_select, flip, loss, rounds, trials, seed):
    params = ErrorScalingParams(
        distances=[3], flip_sweep=[flip], per_round_loss=loss, rounds=rounds,
        post_select=post_select,
    )
    result = run(ExperimentSpec("error_scaling", params, trials=trials, master_seed=seed))
    return result.rows, result.summary["flagged_cells"]


def test_logical_error_curve_post_selection():
    rows, flagged = _error_scaling_rows("distance", 0.09, 0.037, 10, 40_000, 123)
    assert len(rows) == 1
    cell = rows[0]
    # conditioned on all atoms present, losses drop out: binomial formula
    expected = majority_flip_probability_enumeration(3, 0.09)
    assert abs(cell["p_logical"] - expected) < 4 * cell["stderr"]
    assert cell["survivors"] == 3 and not flagged


def _loose_cells(rows):
    """The (p_phys, d, survivors) of rows with no rounds, no errors or a
    stderr above a tenth of the estimate."""
    return {
        (r["p_phys"], r["d"], r["survivors"])
        for r in rows
        if not r["p_logical"] > 0 or r["stderr"] > r["p_logical"] / 10
    }


def test_logical_error_curve_grouped_cells():
    rows, flagged = _error_scaling_rows("none", 0.2, 0.2, 6, 5000, 5)
    assert {c["survivors"] for c in rows} == {0, 1, 2, 3}
    empty = next(c for c in rows if c["survivors"] == 0)
    # empty-register rounds are coin tosses
    assert abs(empty["p_logical"] - 0.5) < 4 * empty["stderr"]
    assert flagged == [] and _loose_cells(rows) == set()
    # few trials: errors in every cell, but a loose estimate in all but the empty one
    rows, flagged = _error_scaling_rows("none", 0.05, 0.2, 6, 300, 5)
    assert all(r["p_logical"] > 0 for r in rows)
    cells = [(c["p_phys"], c["d"], c["survivors"]) for c in flagged]
    assert cells == sorted(_loose_cells(rows)) == [(0.05, 3, s) for s in (1, 2, 3)]
    # no loss: only full-register rounds; no flips: no errors but the empty register's
    rows, flagged = _error_scaling_rows("none", 0.0, 0.0, 6, 500, 5)
    cells = [(c["p_phys"], c["d"], c["survivors"]) for c in flagged]
    assert cells == sorted(_loose_cells(rows)) == [(0.0, 3, s) for s in range(4)]
    assert [c["n_rounds"] for c in flagged] == [0, 0, 0, 6 * 500]


def test_error_scaling_cells_match_exact_hazard():
    # every survivor cell of d = 5 against the exact per-round hazard h(s)
    params = ErrorScalingParams(
        distances=[5], flip_sweep=[0.05, 0.2], per_round_loss=0.15, rounds=12,
        post_select="none",
    )
    rows = run(ExperimentSpec("error_scaling", params, trials=40_000, master_seed=17)).rows
    assert len(rows) == 2 * 6
    for row in rows:
        assert row["stderr"] > 0, row
        exact = repcode_round_hazard(row["survivors"], row["p_phys"])
        assert abs(row["p_logical"] - exact) < 4 * row["stderr"], (row, exact)


def test_lifetime_curves_match_exact_chain():
    params = LifetimeParams(distances=[3, 5])
    rows = run(ExperimentSpec("lifetime", params, trials=40_000, master_seed=19)).rows
    for d in params.distances:
        curve = [row for row in rows if row["d"] == d]
        exact = repcode_exact_error_curve(
            d, params.per_round_flip, params.per_round_loss, params.rounds
        )
        assert len(curve) == params.rounds
        for row, p in zip(curve, exact):
            assert abs(row["p_err"] - p) < 4 * row["stderr"], (row, p)


def test_fit_error_exponent_exact_power_law():
    ps = [0.01, 0.03, 0.1, 0.3]
    exponent, se = fit_error_exponent(ps, [p**2 for p in ps])
    assert exponent == pytest.approx(2.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-9)


def test_fit_error_exponent_validation():
    with pytest.raises(ConfigurationError):
        fit_error_exponent([0.1, 0.2, 0.3], [1e-2, 4e-2, 9e-2])  # 3 points
    with pytest.raises(ConfigurationError):
        fit_error_exponent([0.1, 0.2, 0.3, 0.4], [0.0, 1e-2, 1e-2, 1e-2])
    with pytest.raises(ConfigurationError):
        fit_error_exponent([0.1, 0.2, 0.3, 0.5], [1e-2] * 4)  # under a decade


def test_idling_bit_curve_and_lifetime(rng):
    model = IdleErrorModel()
    times = 24.0 * np.arange(1, 18)
    p_err = simulate_idling_bit(model, times, 100_000, rng) / 100_000
    tau_expected = combined_idle_lifetime(model)
    expected = 0.5 * (1 - np.exp(-times / tau_expected))
    se = np.sqrt(expected * (1 - expected) / 100_000)
    assert (np.abs(p_err - expected) < 4 * se + 1e-9).all()
    res = logical_lifetime(times, p_err)
    assert abs(res.tau_ms - tau_expected) / tau_expected < 0.10
    assert not res.low_confidence


SHIPPED_GRID = 24.0 * np.arange(1, 18)  # idle_ms + round_overhead_ms, 17 rounds


def test_idle_law_rows_follow_the_state_codes():
    model = IdleErrorModel()
    f, lost = 0.5 * (1 - math.exp(-24.0 / 150.0)), 1 - math.exp(-24.0 / 800.0)
    stay, flip = (1 - f) * (1 - lost), f * (1 - lost)
    law = _idle_law(24.0, model)
    assert law[VACANT].tolist() == [1.0, 0.0, 0.0]
    np.testing.assert_allclose(law[F1], [lost, stay, flip], rtol=1e-12)
    np.testing.assert_allclose(law[F2], [lost, flip, stay], rtol=1e-12)
    # sample_chain gives a row's rounding remainder to state 0: VACANT,
    # which every row reaches
    assert VACANT == 0 and (law[:, VACANT] > 0).all()
    np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=1e-15)
    assert (_idle_law(0.0, model) == np.eye(3)).all()


def test_idling_bit_matches_exact_mean(rng):
    model = IdleErrorModel()
    n = 409_600
    p_err = simulate_idling_bit(model, SHIPPED_GRID, n, rng) / n
    exact = np.array([
        idling_bit_error_mean(t, model.tau_depump_ms, model.tau_vacuum_ms) for t in SHIPPED_GRID
    ])
    z = (p_err - exact) / np.sqrt(exact * (1 - exact) / n)
    assert np.abs(z).max() < 4.5, z


def test_idling_bit_paths_match_per_trial_idle():
    # one trial per call gives per-trial error paths, so the joint law of a
    # path (fresh coins for lost atoms included) is compared, not just means
    model = IdleErrorModel(tau_depump_ms=150.0, tau_vacuum_ms=100.0)
    times = np.array([40.0, 80.0, 120.0])
    n = 10_000
    rng = np.random.default_rng(71)
    chain = np.array([simulate_idling_bit(model, times, 1, rng) for _ in range(n)], dtype=bool)
    reference = idling_bit_reference(model, times, n, np.random.default_rng(72))
    weights = 1 << np.arange(len(times))
    for pattern in range(2 ** len(times)):
        p1 = np.mean(chain @ weights == pattern)
        p2 = np.mean(reference @ weights == pattern)
        se = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n)
        assert abs(p1 - p2) < 4.5 * se + 1e-12, (pattern, p1, p2)


def test_idling_bit_cost_does_not_grow_with_trials(rng):
    n = 10**12
    t0 = time.perf_counter()
    errors = simulate_idling_bit(IdleErrorModel(), SHIPPED_GRID, n, rng)
    assert time.perf_counter() - t0 < 0.5
    assert errors.dtype == np.int64 and (0 <= errors).all() and (errors <= n).all()


def test_idling_bit_zero_length_step_changes_nothing(rng):
    assert simulate_idling_bit(IdleErrorModel(), np.zeros(3), 1000, rng).tolist() == [0, 0, 0]
    # with no loss there are no coins, so a repeated grid time repeats its count
    no_loss = IdleErrorModel(tau_vacuum_ms=1e300)
    errors = simulate_idling_bit(no_loss, [10.0, 10.0, 30.0, 30.0], 100_000, rng)
    assert errors[0] == errors[1] > 0 and errors[2] == errors[3]


def test_idling_bit_rejects_a_decreasing_grid_before_sampling(rng):
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="non-negative"):
        simulate_idling_bit(IdleErrorModel(), [10.0, 20.0, 15.0], 100, rng)
    assert rng.bit_generator.state == state


def test_lifetime_flags_missing_plateau():
    times = np.linspace(1.0, 50.0, 17)
    shallow = 0.5 * (1 - np.exp(-times / 1000.0))  # far from saturation
    res = logical_lifetime(times, shallow)
    assert res.low_confidence


def test_physical_mode_statistics(rng):
    # with 20 ms idling the dominant flip source is background depumping:
    # a d=1 round read through the full protocol errs at flip + misclassification
    idle_model = IdleErrorModel()
    registers = idle(np.full((6000, 1), F2, np.int8), 20.0, idle_model, rng)
    records, _ = sequential_array_readout(
        registers, DepumpScalingParams(readout_rounds=1), rng, re_prepare="none"
    )
    inferred = records[0].inferred[:, 0]
    alive = np.count_nonzero(inferred != VACANT)
    errors = np.count_nonzero(inferred == F1)
    from cavreg.register import flip_probability

    p_flip = flip_probability(20.0, idle_model)
    expected = p_flip * (1 - 0.008) + (1 - p_flip) * 0.008
    se = math.sqrt(expected * (1 - expected) / alive)
    assert abs(errors / alive - expected) < 4 * se
