import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavreg import (
    F1,
    F2,
    ConfigurationError,
    DetectorModel,
    HidingModel,
    MeasurementErrorTable,
    PhotonModel,
    ProbeConfig,
    hidden_depump_probability,
    light_shift_profile,
    measure_site,
    sequential_array_readout,
    uniform_register,
)
from cavreg.readout import DEFAULT_ERROR_ROWS, ErrorRates
from cavreg.fitting import fit_linear

from oracles import compounded_depump_error

TABLE = MeasurementErrorTable()
PHOTON = PhotonModel()
HIDING = HidingModel()
PROBE_5 = ProbeConfig(0.25, -5.0)
PROBE_17 = ProbeConfig(0.25, -17.0)


def test_default_table_is_the_calibration_table():
    rates = TABLE.lookup(PROBE_5)
    assert (rates.infidelity_f1, rates.loss_f1) == (0.0039, 0.021)
    assert (rates.infidelity_f2, rates.loss_f2) == (0.008, 0.030)
    # the table quotes detuning magnitudes; both sign conventions resolve
    assert TABLE.lookup(ProbeConfig(0.25, 17.0)) is TABLE.lookup(PROBE_17)
    assert len(DEFAULT_ERROR_ROWS) == 4


def test_unknown_probe_rejected():
    with pytest.raises(ConfigurationError):
        TABLE.lookup(ProbeConfig(0.30, -5.0))


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
    assert b >= HIDING.background_floor


def test_hiding_model_invariants():
    with pytest.raises(ConfigurationError):
        HidingModel(suppression_points=((0.0, 1.0), (0.4, 0.5)))
    with pytest.raises(ConfigurationError):
        HidingModel(suppression_points=((0.0, 2.0), (0.4, 1.5)))
    with pytest.raises(ConfigurationError):
        HidingModel(background_floor=0.1)


def test_light_shift_profile_anchors():
    assert light_shift_profile(HIDING, 100.0, 0.0) == pytest.approx(100.0)
    center = light_shift_profile(HIDING, 100.0, 0.0)
    assert light_shift_profile(HIDING, 100.0, 10.0) == pytest.approx(0.01 * center)
    assert light_shift_profile(HIDING, 0.0, 3.0) == 0.0
    radii = np.linspace(0, 12, 30)
    shifts = [light_shift_profile(HIDING, 50.0, r) for r in radii]
    assert all(b <= a + 1e-12 for a, b in zip(shifts, shifts[1:]))


def test_measure_site_vacant(rng):
    for _ in range(200):
        meas, post = measure_site(None, PROBE_5, TABLE, PHOTON, rng)
        assert post is None
        assert not meas.occupation.bright or meas.occupation.counts >= 2
    # dark counts crossing threshold are ~3e-4 per interval; almost always vacant
    n = 5000
    inferred_vacant = sum(
        measure_site(None, PROBE_5, TABLE, PHOTON, rng)[0].inferred is None
        for _ in range(n)
    )
    assert inferred_vacant / n > 0.995


def test_measure_site_misclassification_rate(rng):
    n = 30_000
    wrong = 0
    for _ in range(n):
        meas, _ = measure_site(F2, PROBE_5, TABLE, PHOTON, rng)
        wrong += meas.inferred is F1
    # misreads are dominated by the 0.8% misclassification channel
    p = 0.008
    se = math.sqrt(p * (1 - p) / n)
    assert abs(wrong / n - p) < 4 * se


def test_measure_site_loss_rates(rng):
    n = 30_000
    # full-interval mode keeps the calibrated bright-state loss
    lost = sum(
        measure_site(F2, PROBE_5, TABLE, PHOTON, rng, adaptive=False)[1] is None
        for _ in range(n)
    )
    se = math.sqrt(0.03 * 0.97 / n)
    assert abs(lost / n - 0.03) < 4 * se
    # adaptive termination divides bright-state loss by the measured factor
    lost = sum(
        measure_site(F2, PROBE_5, TABLE, PHOTON, rng, adaptive=True)[1] is None
        for _ in range(n)
    )
    p = 0.03 / 4.5
    se = math.sqrt(p * (1 - p) / n)
    assert abs(lost / n - p) < 4 * se
    # dark-state loss at the 0.25 mK / 17 MHz row is 0.3%, adaptive or not
    lost = sum(
        measure_site(F1, PROBE_17, TABLE, PHOTON, rng, adaptive=True)[1] is None
        for _ in range(n)
    )
    se = math.sqrt(0.003 * 0.997 / n)
    assert abs(lost / n - 0.003) < 4 * se


def test_measure_site_is_perfect_in_the_ideal_limit(rng):
    table = MeasurementErrorTable(
        rows={(0.25, 5.0): ErrorRates(0.0, 0.0, 0.0, 0.0)}
    )
    photon = PhotonModel(
        bright_mean_full=200.0,
        detector=DetectorModel(dark_rate_hz=0.0),
    )
    for state in (F2, F1, None):
        for _ in range(300):
            meas, post = measure_site(state, PROBE_5, table, photon, rng)
            assert meas.inferred is state
            assert post is state


def test_sequential_readout_rejects_duplicates(rng):
    reg = uniform_register(3, F2)
    with pytest.raises(ConfigurationError):
        sequential_array_readout(
            reg, [0, 0, 1], 2.0, rng,
            probe=PROBE_5, table=TABLE, photon=PHOTON, hiding=HIDING,
        )


def test_single_site_round_error_is_spam_only(rng):
    # one atom: no hiding exposure, per-round bright error is the SPAM error
    n = 20_000
    errors = detections = 0
    for t in range(n):
        records, _ = sequential_array_readout(
            uniform_register(1, F2), [0], 2.0, rng,
            probe=PROBE_5, table=TABLE, photon=PHOTON, hiding=HIDING,
        )
        rec = records[0]
        if rec.was_occupied and rec.result.inferred is not None:
            detections += 1
            errors += rec.result.inferred is F1
    p = 0.008
    se = math.sqrt(p * (1 - p) / detections)
    assert abs(errors / detections - p) < 4 * se


def test_unhidden_depump_matches_compounded_oracle(rng):
    # power 0: 4.4% depump per other-site measurement; round-1 error at
    # position k follows the compounded closed form
    n_sites, trials = 6, 4000
    errors = np.zeros(n_sites)
    counts = np.zeros(n_sites)
    for _ in range(trials):
        records, _ = sequential_array_readout(
            uniform_register(n_sites, F2), list(range(n_sites)), 0.0, rng,
            probe=PROBE_5, table=TABLE, photon=PHOTON, hiding=HIDING, rounds=1,
        )
        for rec in records:
            if rec.was_occupied and rec.result.inferred is not None:
                counts[rec.site] += 1
                errors[rec.site] += rec.result.inferred is F1
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
    errors = np.zeros(n_sites)
    counts = np.zeros(n_sites)
    for _ in range(trials):
        records, _ = sequential_array_readout(
            uniform_register(n_sites, F2), list(range(n_sites)), power, rng,
            probe=PROBE_5, table=TABLE, photon=PHOTON, hiding=HIDING, rounds=1,
        )
        for rec in records:
            if rec.was_occupied and rec.result.inferred is not None:
                counts[rec.site] += 1
                errors[rec.site] += rec.result.inferred is F1
    fit = fit_linear(np.arange(1, n_sites + 1), errors / counts)
    assert abs(fit.slope - p_hidden) < 4 * fit.slope_stderr


def test_steady_state_exposure_independent_of_position(rng):
    # from round 2 on every atom has accumulated n-1 exposures since its own
    # last measurement, so the error is position independent
    power = 0.4
    p_hidden = hidden_depump_probability(HIDING, power)
    n_sites, trials, rounds = 5, 4000, 3
    errors = np.zeros(n_sites)
    counts = np.zeros(n_sites)
    for _ in range(trials):
        records, _ = sequential_array_readout(
            uniform_register(n_sites, F2), list(range(n_sites)), power, rng,
            probe=PROBE_5, table=TABLE, photon=PHOTON, hiding=HIDING, rounds=rounds,
        )
        for rec in records:
            if rec.round_index == 0:
                continue
            if rec.was_occupied and rec.result.inferred is not None:
                counts[rec.site] += 1
                errors[rec.site] += rec.result.inferred is F1
    rates = errors / counts
    expected = compounded_depump_error(n_sites - 1, p_hidden, 0.008, 0.0039)
    for k in range(n_sites):
        se = math.sqrt(expected * (1 - expected) / counts[k])
        assert abs(rates[k] - expected) < 4 * se


def test_adaptive_rounds_skip_sites_read_vacant(rng):
    # with loss forced to 1 in full-interval mode every atom is gone after
    # round 1; adaptive rounds must not re-measure them
    table = MeasurementErrorTable(rows={(0.25, 5.0): ErrorRates(0.0, 1.0, 0.0, 1.0)})
    records, reg = sequential_array_readout(
        uniform_register(4, F2), list(range(4)), 2.0, rng,
        probe=PROBE_5, table=table, photon=PHOTON, hiding=HIDING,
        adaptive=False, adaptive_rounds=True, rounds=3,
    )
    assert reg.occupied_indices() == []
    by_round = {}
    for rec in records:
        by_round.setdefault(rec.round_index, []).append(rec.site)
    # atom loss lands after its measurement: round 0 reads everyone present,
    # round 1 reads everyone vacant, round 2 is skipped entirely
    assert by_round[0] == [0, 1, 2, 3]
    assert by_round[1] == [0, 1, 2, 3]
    assert all(rec.result.inferred is None for rec in records if rec.round_index == 1)
    assert 2 not in by_round


def test_loss_accounting_product_of_survival_factors(rng):
    # repeated full-interval measurements of one bright atom: survival after
    # R rounds is (1 - loss_f2)^R
    rounds, trials = 6, 8000
    survived = 0
    for _ in range(trials):
        _, reg = sequential_array_readout(
            uniform_register(1, F2), [0], 2.0, rng,
            probe=PROBE_5, table=TABLE, photon=PHOTON, hiding=HIDING,
            adaptive=False, rounds=rounds,
        )
        survived += reg.sites[0] is not None
    expected = (1 - 0.03) ** rounds
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(survived / trials - expected) < 4 * se
