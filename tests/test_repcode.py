import math

import numpy as np
import pytest

from cavreg import (
    F1,
    F2,
    CodeConfig,
    ConfigurationError,
    HidingModel,
    IdleErrorModel,
    LoadFailure,
    MeasurementErrorTable,
    PhotonModel,
    ProbeConfig,
    VoteOutcome,
    combined_idle_lifetime,
    encode,
    fit_error_exponent,
    logical_lifetime,
    majority_error_probability,
    run_round,
    simulate_code_abstract,
    simulate_idling_bit,
    uniform_register,
)
from cavreg.harness import ErrorScalingParams, ExperimentSpec, run
from cavreg.register import Register

from oracles import (
    majority_flip_probability_enumeration,
    repcode_exact_error_curve,
)


def test_encode_patterns():
    reg = encode(uniform_register(5, F2), 0, 3)
    assert reg.sites[:3] == [F1, F1, F1]
    assert reg.sites[3:] == [F2, F2]
    reg = encode(uniform_register(5, F1), 1, 5)
    assert reg.sites == [F2] * 5
    reg = encode(uniform_register(1, F1), 1, 1)
    assert reg.sites == [F2]


def test_encode_needs_enough_atoms():
    reg = Register(sites=[F2, None, F2])
    with pytest.raises(LoadFailure):
        encode(reg, 0, 3)
    with pytest.raises(ConfigurationError):
        encode(uniform_register(3, F2), 2, 3)


def test_code_config_invariants():
    with pytest.raises(ConfigurationError):
        CodeConfig(distance=2)
    with pytest.raises(ConfigurationError):
        CodeConfig(per_round_flip=1.5)
    assert CodeConfig(idle_ms=20.0, round_overhead_ms=4.0).round_time_ms == 24.0


class _ScriptedRng:
    def __init__(self, values):
        self._values = list(values)

    def random(self, *args):
        return self._values.pop(0)


def test_run_round_clear_majority():
    # votes {F2, F2, F1} with encoded 1: majority ONE, all reset to F2
    reg = encode(uniform_register(3, F2), 1, 3)
    script = [0.99, 0.99,  # atom 0: no flip, no loss
              0.99, 0.99,  # atom 1: no flip, no loss
              0.00, 0.99]  # atom 2: flip, no loss
    record, out = run_round(reg, CodeConfig(distance=3), _ScriptedRng(script))
    assert record.votes == [F2, F2, F1]
    assert record.survivors == 3
    assert record.vote_outcome is VoteOutcome.ONE
    assert record.logical_state_after == 1
    assert out.sites == [F2, F2, F2]


def test_run_round_tie_resolves_by_coin():
    # two survivors split {F1, F2} -> coin toss
    reg = encode(uniform_register(3, F2), 1, 3)
    script = [0.99, 0.00,   # atom 0: lost
              0.00, 0.99,   # atom 1: flip -> F1
              0.99, 0.99,   # atom 2: stays F2
              0.70]         # coin: -> 0
    record, out = run_round(reg, CodeConfig(distance=3), _ScriptedRng(script))
    assert record.votes == [None, F1, F2]
    assert record.survivors == 2
    assert record.vote_outcome is VoteOutcome.COIN_TOSS
    assert record.logical_state_after == 0
    assert out.sites == [None, F1, F1]


def test_run_round_empty_register_coins():
    reg = encode(uniform_register(2, F2), 1, 1)
    config = CodeConfig(distance=1, per_round_loss=1.0)
    record, out = run_round(reg, config, _ScriptedRng([0.99, 0.0, 0.99, 0.0, 0.2]))
    assert record.survivors == 0
    assert record.vote_outcome is VoteOutcome.COIN_TOSS
    assert out.occupied_indices() == []


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


def test_run_round_agrees_with_vectorized(rng):
    # dual route: the per-trial object simulation and the vectorized engine
    # produce the same per-round statistics
    d, p, loss, rounds, trials = 3, 0.2, 0.1, 5, 4000
    config = CodeConfig(distance=d, per_round_flip=p, per_round_loss=loss)
    new_err = np.zeros(rounds)
    surv = np.zeros(rounds)
    for t in range(trials):
        reg = encode(uniform_register(d, F2), 1, d)
        state_bit = 1
        for r in range(rounds):
            record, reg = run_round(reg, config, rng, r)
            new_err[r] += record.logical_state_after != state_bit
            state_bit = record.logical_state_after
            surv[r] += record.survivors
    new_err /= trials
    surv /= trials
    trace = simulate_code_abstract(d, p, loss, rounds, trials, rng)
    for r in range(rounds):
        exp = trace.new_error[:, r].mean()
        se = math.sqrt(max(exp * (1 - exp), 1e-9) / trials) * math.sqrt(2)
        assert abs(new_err[r] - exp) < 4 * se
        se_s = trace.survivors[:, r].std(ddof=1) / math.sqrt(trials) * math.sqrt(2)
        assert abs(surv[r] - trace.survivors[:, r].mean()) < 4 * se_s


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


def test_logical_error_curve_grouped_cells():
    rows, _ = _error_scaling_rows("none", 0.2, 0.2, 6, 5000, 5)
    assert {c["survivors"] for c in rows} == {0, 1, 2, 3}
    empty = next(c for c in rows if c["survivors"] == 0)
    # empty-register rounds are coin tosses
    assert abs(empty["p_logical"] - 0.5) < 4 * empty["stderr"]


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
    p_err = simulate_idling_bit(model, times, 100_000, rng)
    tau_expected = combined_idle_lifetime(model)
    expected = 0.5 * (1 - np.exp(-times / tau_expected))
    se = np.sqrt(expected * (1 - expected) / 100_000)
    assert (np.abs(p_err - expected) < 4 * se + 1e-9).all()
    res = logical_lifetime(times, p_err)
    assert abs(res.tau_ms - tau_expected) / tau_expected < 0.10
    assert not res.low_confidence
    assert res.crossing_1_minus_1_over_e_ms == pytest.approx(res.tau_ms)
    assert res.crossing_p_inf_over_e_ms == pytest.approx(
        -res.tau_ms * math.log(1 - 1 / math.e)
    )


def test_lifetime_flags_missing_plateau():
    times = np.linspace(1.0, 50.0, 17)
    shallow = 0.5 * (1 - np.exp(-times / 1000.0))  # far from saturation
    res = logical_lifetime(times, shallow)
    assert res.low_confidence


def test_physical_mode_round_runs(rng):
    config = CodeConfig(distance=3, idle_ms=20.0)
    reg = encode(uniform_register(3, F2), 1, 3)
    record, out = run_round(
        reg, config, rng, mode="physical",
        idle_model=IdleErrorModel(),
        probe=ProbeConfig(0.25, -5.0),
        table=MeasurementErrorTable(),
        photon=PhotonModel(),
        hiding=HidingModel(),
    )
    assert record.survivors <= 3
    assert record.vote_outcome in set(VoteOutcome)
    assert out.n == 3


def test_physical_mode_statistics(rng):
    # with 20 ms idling the dominant flip source is background depumping:
    # per-round vote errors for d=1 approach flip + misclassification
    config = CodeConfig(distance=1, idle_ms=20.0)
    idle_model = IdleErrorModel()
    trials = 6000
    errors = 0
    alive = 0
    for _ in range(trials):
        reg = encode(uniform_register(1, F2), 1, 1)
        record, _ = run_round(
            reg, config, rng, mode="physical",
            idle_model=idle_model,
            probe=ProbeConfig(0.25, -5.0),
            table=MeasurementErrorTable(),
            photon=PhotonModel(),
            hiding=HidingModel(),
        )
        if record.survivors == 1:
            alive += 1
            errors += record.logical_state_after != 1
    from cavreg.register import flip_probability

    p_flip = flip_probability(20.0, idle_model)
    expected = p_flip * (1 - 0.008) + (1 - p_flip) * 0.008
    se = math.sqrt(expected * (1 - expected) / alive)
    assert abs(errors / alive - expected) < 4 * se
