"""The array readout kernel against the per-trial reference loop.

sequential_array_readout runs every trial of a state-code array through
each (round, target) step at once.  tests/oracles.py keeps the scalar
per-trial loop it replaced; here both run the same configurations and
every per-(site, round) rate must agree within K standard errors of the
difference.
"""

import math

import numpy as np
import pytest

from cavreg import (
    F1,
    F2,
    HidingModel,
    MeasurementErrorTable,
    PhotonModel,
    ProbeConfig,
    Register,
    hidden_depump_probability,
    measure_site,
    sample_adaptive_interval,
    sequential_array_readout,
    uniform_register,
)
from cavreg.harness import DepumpScalingParams, ExperimentSpec, run
from cavreg.photons import IntervalOutcome
from cavreg.readout import ErrorRates, SiteMeasurement
from cavreg.register import state_codes

from oracles import sequential_readout_transcript

K = 4.5
PROBE = ProbeConfig(0.25, -5.0)
PHOTON = PhotonModel()
# loss and misreads large enough that adaptive_rounds skips sites often
LOSSY = MeasurementErrorTable(rows={(0.25, 5.0): ErrorRates(0.02, 0.08, 0.03, 0.25)})
# a background floor large enough that one idle interval per round shows
HIGH_FLOOR = HidingModel(background_floor=0.02)

N_SITES, ROUNDS = 4, 3
ORACLE_TRIALS, KERNEL_TRIALS = 2500, 20_000

CONFIGS = {
    "hiding_0mW": dict(hiding_power_mw=0.0),
    "hiding_2mW": dict(hiding_power_mw=2.0),
    "full_interval": dict(hiding_power_mw=0.4, adaptive=False),
    "adaptive_rounds": dict(
        hiding_power_mw=0.4, adaptive_rounds=True, table=LOSSY, re_prepare="none"
    ),
    "idle_intervals": dict(hiding_power_mw=2.0, idle_intervals=1, hiding=HIGH_FLOOR),
    "re_prepare_inferred": dict(hiding_power_mw=0.0, table=LOSSY, re_prepare="inferred"),
}


def _run_config(kw):
    kw = dict(kw)
    power = kw.pop("hiding_power_mw")
    table = kw.pop("table", MeasurementErrorTable())
    hiding = kw.pop("hiding", HidingModel())
    order = list(range(N_SITES))
    # [site, round, (measured, detected, errors)] and final occupancy per site
    oracle = np.zeros((N_SITES, ROUNDS, 3), dtype=np.int64)
    oracle_final = np.zeros(N_SITES, dtype=np.int64)
    rng = np.random.default_rng(101)
    for _ in range(ORACLE_TRIALS):
        transcript, sites = sequential_readout_transcript(
            [2] * N_SITES, order, hidden_depump_probability(hiding, power), rng,
            rates=table.lookup(PROBE), photon=PHOTON,
            background_floor=hiding.background_floor, rounds=ROUNDS, **kw,
        )
        for round_index, site, prepared, inferred in transcript:
            cell = oracle[site, round_index]
            cell[0] += 1
            if prepared is not None and inferred is not None:
                cell[1] += 1
                cell[2] += inferred == 1
        oracle_final += [s is not None for s in sites]

    kernel = np.zeros_like(oracle)
    codes = np.tile(state_codes([F2] * N_SITES), (KERNEL_TRIALS, 1))
    records, final = sequential_array_readout(
        codes, order, power, np.random.default_rng(202),
        probe=PROBE, table=table, photon=PHOTON, hiding=hiding, rounds=ROUNDS, **kw,
    )
    for rec in records:
        detected = rec.was_occupied & (rec.result.inferred != 0)
        kernel[rec.site, rec.round_index] += (
            rec.prepared.size,
            np.count_nonzero(detected),
            np.count_nonzero(detected & (rec.result.inferred == 1)),
        )
    kernel_final = np.count_nonzero(final, axis=0)
    return oracle, oracle_final, kernel, kernel_final


def _agree(k1, n1, k2, n2) -> bool:
    """Two binomial proportions agree within K pooled standard errors."""
    if n1 == 0 or n2 == 0:
        return n1 == n2 == 0 or k1 == k2 == 0
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    return abs(k1 / n1 - k2 / n2) <= K * se


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_kernel_matches_per_trial_oracle(name):
    oracle, oracle_final, kernel, kernel_final = _run_config(CONFIGS[name])
    bad = []
    for site in range(N_SITES):
        for r in range(ROUNDS):
            (m1, d1, e1), (m2, d2, e2) = oracle[site, r], kernel[site, r]
            checks = {
                "measured": (m1, ORACLE_TRIALS, m2, KERNEL_TRIALS),
                "detection": (d1, ORACLE_TRIALS, d2, KERNEL_TRIALS),
                "error": (e1, d1, e2, d2),
            }
            for what, args in checks.items():
                if not _agree(*args):
                    bad.append((site, r, what, args))
        if not _agree(oracle_final[site], ORACLE_TRIALS, kernel_final[site], KERNEL_TRIALS):
            bad.append((site, "final occupancy"))
    assert not bad, bad


def test_adaptive_rounds_records_hold_only_measured_trials():
    codes = np.tile(state_codes([F2] * 3), (2000, 1))
    records, _ = sequential_array_readout(
        codes, [0, 1, 2], 0.4, np.random.default_rng(5),
        probe=PROBE, table=LOSSY, photon=PHOTON, hiding=HidingModel(),
        adaptive_rounds=True, rounds=2, re_prepare="none",
    )
    first = {rec.site: rec for rec in records if rec.round_index == 0}
    for rec in records:
        if rec.round_index == 1:
            assert rec.prepared.size == np.count_nonzero(first[rec.site].result.inferred)
            assert rec.result.hyperfine.counts.shape == rec.prepared.shape


def test_array_readout_leaves_its_input_alone():
    codes = np.tile(state_codes([F2, None, F1]), (50, 1))
    before = codes.copy()
    records, final = sequential_array_readout(
        codes, [0, 1, 2], 0.0, np.random.default_rng(6),
        probe=PROBE, table=MeasurementErrorTable(), photon=PHOTON, hiding=HidingModel(),
        rounds=2,
    )
    assert np.array_equal(codes, before)
    assert final.shape == codes.shape
    assert len(records) == 6
    assert all(rec.prepared.shape == (50,) for rec in records)


def test_single_site_calls_return_scalar_types(rng):
    out = sample_adaptive_interval(F2, PHOTON, rng)
    assert isinstance(out, IntervalOutcome)
    assert type(out.counts) is int and type(out.duration_us) is float
    assert type(out.bright) is bool
    meas, post = measure_site(F1, PROBE, MeasurementErrorTable(), PHOTON, rng)
    assert isinstance(meas, SiteMeasurement)
    assert meas.inferred in (F1, F2, None) and post in (F1, F2, None)
    records, reg = sequential_array_readout(
        uniform_register(2, F2), [0, 1], 2.0, rng,
        probe=PROBE, table=MeasurementErrorTable(), photon=PHOTON, hiding=HidingModel(),
    )
    assert isinstance(reg, Register)
    assert all(s in (F1, F2, None) for s in reg.sites)
    assert all(type(rec.was_occupied) is bool for rec in records)
    assert all(rec.prepared is F2 for rec in records)


def test_array_interval_shapes(rng):
    codes = np.array([2, 1, 0, 2], dtype=np.int8)
    out = sample_adaptive_interval(codes, PHOTON, rng)
    assert out.counts.shape == out.duration_us.shape == out.bright.shape == (4,)
    assert np.array_equal(out.bright, out.counts >= PHOTON.threshold)
    assert np.all(out.duration_us <= PHOTON.full_interval_us)


def test_depump_summary_keeps_steady_state_counts():
    params = DepumpScalingParams(sizes=[1, 2, 3])
    summaries = [
        run(ExperimentSpec("depump_scaling", params, trials=5000, master_seed=8,
                           threads=threads)).summary
        for threads in (1, 4)
    ]
    assert summaries[0] == summaries[1]
    counts = summaries[0]["steady_state_counts"]
    assert [c["n_sites"] for c in counts] == [1, 2, 3]
    for c in counts:
        # rounds 2-4 of every site of every trial, less the lost atoms
        assert 0.95 * 3 * c["n_sites"] * 5000 < c["detections"] <= 3 * c["n_sites"] * 5000
        assert 0 < c["errors"] < c["detections"]
