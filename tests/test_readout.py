import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavreg import (
    F1,
    F2,
    VACANT,
    ConfigurationError,
    DetectorModel,
    HidingModel,
    PhotonModel,
    hidden_depump_probability,
    measure_site,
    measurement_rates,
    sequential_array_readout,
    uniform_register,
)
from cavreg.readout import DepumpScalingParams, ErrorRates, suppression_factor
from cavreg.fitting import fit_linear

from oracles import compounded_depump_error

HIDING = HidingModel()
# the calibration rows at 0.25 mK and 5 MHz, and at 0.25 mK and 17 MHz
ROW_5 = ErrorRates(0.0039, 0.021, 0.008, 0.030)
ROW_17 = ErrorRates(0.0036, 0.003, 0.039, 0.006)
# the shipped [readout] section: the ROW_5 row, adaptive termination, 2 mW hiding, 4 rounds
PARAMS = DepumpScalingParams()
IDEAL = ErrorRates(0.0, 0.0, 0.0, 0.0)  # no misreads and no loss, adaptive or not


def _trials(n, sites):
    """n trials of an all-bright register of `sites` sites."""
    return np.tile(uniform_register(sites, F2), (n, 1))


def _tally(records, n_sites, from_round=0):
    """Per site: (errors, detections) among atoms present and detected."""
    errors = np.zeros(n_sites)
    counts = np.zeros(n_sites)
    for rec in records[from_round:]:
        detected = (rec.prepared != VACANT) & (rec.inferred != VACANT)
        counts += np.count_nonzero(detected, axis=0)
        errors += np.count_nonzero(detected & (rec.inferred == F1), axis=0)
    return errors, counts


def test_measurement_rates_divide_bright_loss_only_under_adaptive_termination():
    assert measurement_rates(ROW_5, False, 4.5) is ROW_5
    rates = measurement_rates(ROW_5, True, 4.5)
    assert rates.loss_f2 == 0.030 / 4.5
    assert (rates.infidelity_f1, rates.loss_f1, rates.infidelity_f2) == (0.0039, 0.021, 0.008)
    with pytest.raises(ConfigurationError, match="adaptive bright-state loss 30 "):
        measurement_rates(ROW_5, True, 0.001)
    assert measurement_rates(ROW_5, False, 0.001) is ROW_5


def test_hidden_depump_calibration_points():
    assert hidden_depump_probability(HIDING, 0.0) == pytest.approx(0.044)
    assert hidden_depump_probability(HIDING, 0.4) == pytest.approx(0.044 / 5.2)
    assert hidden_depump_probability(HIDING, 2.0) == pytest.approx(0.0008)
    with pytest.raises(ConfigurationError):
        hidden_depump_probability(HIDING, -0.1)


@settings(max_examples=50, deadline=None)
@given(
    p1=st.floats(min_value=0.0, max_value=5.0),
    p2=st.floats(min_value=0.0, max_value=5.0),
)
def test_hiding_monotone_and_floored(p1, p2):
    lo, hi = sorted((p1, p2))
    a = hidden_depump_probability(HIDING, lo)
    b = hidden_depump_probability(HIDING, hi)
    assert b <= a + 1e-15
    assert b >= HIDING.background_floor_per_interval


def test_hidden_depump_below_first_calibrated_power_is_the_unhidden_rate():
    # below its first calibration point the factor would extrapolate under 1
    # and push the hidden rate above the unhidden one, here to 44
    hiding = HidingModel(suppression_points_mw=((1.0, 1.0), (2.0, 1000.0)))
    assert hidden_depump_probability(hiding, 0.0) == hiding.depump_per_interval_unhidden
    assert hidden_depump_probability(hiding, 1.5) < hiding.depump_per_interval_unhidden


def test_hidden_depump_past_float_range_is_the_floor():
    # the shipped calibration extrapolates past the float range above about
    # 172 mW, where math.exp used to raise; below it the factor is unchanged
    slope = math.log(5.2) / 0.4
    assert suppression_factor(HIDING, 172.0) == math.exp(slope * 172.0)
    assert suppression_factor(HIDING, 173.0) == math.inf
    assert hidden_depump_probability(HIDING, 250.0) == HIDING.background_floor_per_interval


def test_hiding_model_invariants():
    with pytest.raises(ConfigurationError):
        HidingModel(suppression_points_mw=((0.0, 1.0), (0.4, 0.5)))
    with pytest.raises(ConfigurationError):
        HidingModel(suppression_points_mw=((0.0, 2.0), (0.4, 1.5)))
    with pytest.raises(ConfigurationError):
        HidingModel(background_floor_per_interval=0.1)


def test_measure_site_vacant(rng):
    _, post = measure_site(uniform_register(200, VACANT), PARAMS, rng)
    assert np.all(post == VACANT)
    # dark counts crossing threshold are ~3e-4 per interval; almost always vacant
    n = 5000
    inferred, _ = measure_site(uniform_register(n, VACANT), PARAMS, rng)
    inferred_vacant = np.count_nonzero(inferred == VACANT)
    assert inferred_vacant / n > 0.995


def test_measure_site_misclassification_rate(rng):
    n = 30_000
    inferred, _ = measure_site(uniform_register(n, F2), PARAMS, rng)
    wrong = np.count_nonzero(inferred == F1)
    # misreads are dominated by the 0.8% misclassification channel
    p = 0.008
    se = math.sqrt(p * (1 - p) / n)
    assert abs(wrong / n - p) < 4 * se


def test_measure_site_loss_rates(rng):
    n = 30_000
    # full-interval mode keeps the calibrated bright-state loss
    full_interval = DepumpScalingParams(adaptive_termination=False)
    post = measure_site(uniform_register(n, F2), full_interval, rng)[1]
    lost = np.count_nonzero(post == VACANT)
    se = math.sqrt(0.03 * 0.97 / n)
    assert abs(lost / n - 0.03) < 4 * se
    # adaptive termination divides bright-state loss by the measured factor
    post = measure_site(uniform_register(n, F2), PARAMS, rng)[1]
    lost = np.count_nonzero(post == VACANT)
    p = 0.03 / 4.5
    se = math.sqrt(p * (1 - p) / n)
    assert abs(lost / n - p) < 4 * se
    # dark-state loss at the 0.25 mK / 17 MHz row is 0.3%, adaptive or not
    post = measure_site(uniform_register(n, F1), DepumpScalingParams(rates=ROW_17), rng)[1]
    lost = np.count_nonzero(post == VACANT)
    se = math.sqrt(0.003 * 0.997 / n)
    assert abs(lost / n - 0.003) < 4 * se


def test_measure_site_is_perfect_in_the_ideal_limit(rng):
    photon = PhotonModel(
        bright_mean_full=200.0,
        detector=DetectorModel(dark_rate_hz=0.0),
    )
    params = DepumpScalingParams(rates=IDEAL, photon=photon)
    for state in (F2, F1, VACANT):
        inferred, post = measure_site(uniform_register(300, state), params, rng)
        assert np.all(inferred == state)
        assert np.all(post == state)


def test_sequential_readout_names_the_trial_shape(rng):
    # a 1-D register lacks the leading trial axis
    with pytest.raises(ConfigurationError, match=r"\(trials, sites\)"):
        sequential_array_readout(uniform_register(3, F2), PARAMS, rng)


@pytest.mark.parametrize("policy", ["inferred", "dark"])
def test_sequential_readout_rejects_unknown_re_prepare(policy, rng):
    with pytest.raises(ConfigurationError, match="re_prepare"):
        sequential_array_readout(_trials(2, 3), PARAMS, rng, re_prepare=policy)


def test_single_site_round_error_is_spam_only(rng):
    # one atom: no hiding exposure, per-round bright error is the SPAM error
    n = 20_000
    records, _ = sequential_array_readout(
        _trials(n, 1), DepumpScalingParams(readout_rounds=1), rng
    )
    (errors,), (detections,) = _tally(records, 1)
    p = 0.008
    se = math.sqrt(p * (1 - p) / detections)
    assert abs(errors / detections - p) < 4 * se


def test_unhidden_depump_matches_compounded_oracle(rng):
    # power 0: 4.4% depump per other-site measurement; round-1 error at
    # position k follows the compounded closed form
    n_sites, trials = 6, 4000
    records, _ = sequential_array_readout(
        _trials(trials, n_sites), DepumpScalingParams(hiding_power_mw=0.0, readout_rounds=1), rng
    )
    errors, counts = _tally(records, n_sites)
    for k in range(n_sites):
        expected = compounded_depump_error(k, 0.044, 0.008, 0.0039)
        se = math.sqrt(expected * (1 - expected) / counts[k])
        assert abs(errors[k] / counts[k] - expected) < 4 * se


def test_first_round_error_is_affine_in_position(rng):
    # intermediate hiding power: slope of round-1 error vs position equals the
    # hidden depump probability (compounding is negligible at this rate)
    power = 0.4
    p_hidden = hidden_depump_probability(HIDING, power)
    n_sites, trials = 8, 6000
    records, _ = sequential_array_readout(
        _trials(trials, n_sites), DepumpScalingParams(hiding_power_mw=power, readout_rounds=1), rng
    )
    errors, counts = _tally(records, n_sites)
    fit = fit_linear(np.arange(1, n_sites + 1), errors / counts)
    assert abs(fit.slope - p_hidden) < 4 * fit.slope_stderr


def test_steady_state_exposure_independent_of_position(rng):
    # from round 2 on every atom has accumulated n-1 exposures since its own
    # last measurement, so the error is position independent
    power = 0.4
    p_hidden = hidden_depump_probability(HIDING, power)
    n_sites, trials, rounds = 5, 4000, 3
    records, _ = sequential_array_readout(
        _trials(trials, n_sites), DepumpScalingParams(hiding_power_mw=power, readout_rounds=rounds),
        rng,
    )
    errors, counts = _tally(records, n_sites, from_round=1)
    rates = errors / counts
    expected = compounded_depump_error(n_sites - 1, p_hidden, 0.008, 0.0039)
    for k in range(n_sites):
        se = math.sqrt(expected * (1 - expected) / counts[k])
        assert abs(rates[k] - expected) < 4 * se


def test_exposure_law_matches_closed_form(rng):
    # an ideal readout reads every prepared state back exactly, so the F1
    # fraction at a target is the exact chance that its bright atom depumped
    # since it was last re-prepared: 1 - (1 - p)^q at site q in round 0,
    # 1 - (1 - p)^(n-1) (1 - floor)^idle in later rounds
    photon = PhotonModel(
        bright_mean_full=1e3, threshold_counts=1, detector=DetectorModel(dark_rate_hz=0.0)
    )
    hiding = HidingModel(background_floor_per_interval=0.02)
    p, floor = hidden_depump_probability(hiding, 0.0), hiding.background_floor_per_interval
    n_sites, rounds, trials = 6, 3, 20_000
    params = DepumpScalingParams(readout_rounds=rounds, hiding_power_mw=0.0, idle_intervals=1,
                                 rates=IDEAL, photon=photon, hiding=hiding)
    records, final = sequential_array_readout(_trials(trials, n_sites), params, rng,
                                              re_prepare="bright")

    def close(dark: np.ndarray, expected: float) -> bool:
        se = math.sqrt(expected * (1 - expected) / dark.size)
        return abs(np.count_nonzero(dark) / dark.size - expected) <= 4 * se

    for r, rec in enumerate(records):
        assert np.array_equal(rec.inferred, rec.prepared)
        for q in range(n_sites):
            kept = (1 - p) ** q if r == 0 else (1 - p) ** (n_sites - 1) * (1 - floor)
            assert close(rec.prepared[:, q] == F1, 1 - kept), (r, q)
    # after the last round a site keeps the exposure after its own step and
    # the idle interval
    for q in range(n_sites):
        assert close(final[:, q] == F1, 1 - (1 - p) ** (n_sites - 1 - q) * (1 - floor)), q


def test_adaptive_rounds_skip_sites_read_vacant(rng):
    # with loss forced to 1 in full-interval mode every atom is gone after
    # round 1; adaptive rounds must not re-measure them
    params = DepumpScalingParams(readout_rounds=3, adaptive_rounds=True,
                                 adaptive_termination=False, rates=ErrorRates(0.0, 1.0, 0.0, 1.0))
    records, reg = sequential_array_readout(uniform_register(4, F2)[None, :], params, rng)
    assert np.all(reg == VACANT)
    # atom loss lands after its measurement: round 0 reads everyone present,
    # round 1 reads everyone vacant, round 2 is skipped entirely
    assert len(records) == 3
    assert records[0].measured.all() and records[1].measured.all()
    assert np.all(records[1].inferred == VACANT)
    assert not records[2].measured.any()


@pytest.mark.parametrize("adaptive_termination", [False, True])
def test_loss_accounting_product_of_survival_factors(adaptive_termination, rng):
    # repeated measurements of one bright atom: survival after R rounds is
    # (1 - loss_f2)^R, with loss_f2 divided by 4.5 exactly once under
    # adaptive termination (twice would read about 0.991, never 0.835)
    rounds, trials = 6, 8000
    params = DepumpScalingParams(readout_rounds=rounds, adaptive_termination=adaptive_termination)
    _, final = sequential_array_readout(_trials(trials, 1), params, rng)
    survived = np.count_nonzero(final[:, 0] != VACANT)
    expected = (1 - (0.03 / 4.5 if adaptive_termination else 0.03)) ** rounds
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(survived / trials - expected) < 4 * se
