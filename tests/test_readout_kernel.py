"""The array readout kernel against the per-trial reference loop.

sequential_array_readout reads every site of every trial of a state-code
array out in one batched measurement per round.  tests/oracles.py keeps the
scalar per-trial loop that steps site by site; here both run the same
configurations and every per-(site, round) rate, and the final occupancy
and bright occupancy of every site, must agree within K standard errors of
the difference.
"""

import math

import numpy as np
import pytest

from cavreg import (
    F1,
    F2,
    VACANT,
    HidingModel,
    PhotonModel,
    hidden_depump_probability,
    measure_site,
    sample_adaptive_interval,
    sequential_array_readout,
    uniform_register,
)
from cavreg.harness import DepumpScalingParams, ExperimentSpec, run
from cavreg.readout import ErrorRates

from oracles import sequential_readout_transcript

K = 4.5
PHOTON = PhotonModel()
# loss and misreads large enough that adaptive_rounds skips sites often
LOSSY = ErrorRates(0.02, 0.08, 0.03, 0.25)
# a background floor large enough that one idle interval per round shows
HIGH_FLOOR = HidingModel(background_floor_per_interval=0.02)

N_SITES, ROUNDS = 4, 3
ORACLE_TRIALS, KERNEL_TRIALS = 2500, 20_000
# a register with a vacant and a dark site among bright atoms
MIXED = dict(register=[F2, VACANT, F1, F2, F2])

# each config's DepumpScalingParams fields (the shipped 0.25 mK / 5 MHz row
# unless it sets rates), register and re_prepare policy
CONFIGS = {
    "hiding_0mW": dict(hiding_power_mw=0.0),
    "hiding_2mW": dict(hiding_power_mw=2.0),
    "full_interval": dict(hiding_power_mw=0.4, adaptive_termination=False),
    "adaptive_rounds": dict(
        hiding_power_mw=0.4, adaptive_rounds=True, rates=LOSSY, re_prepare="none"
    ),
    "idle_intervals": dict(hiding_power_mw=2.0, idle_intervals=1, hiding=HIGH_FLOOR),
    "mixed_idle_intervals": dict(
        MIXED, hiding_power_mw=0.0, idle_intervals=1, hiding=HIGH_FLOOR
    ),
    "mixed_adaptive_rounds": dict(
        MIXED, hiding_power_mw=0.4, adaptive_rounds=True, rates=LOSSY, re_prepare="bright"
    ),
}


def _run_config(kw):
    kw = dict(kw)
    register = kw.pop("register", [F2] * N_SITES)
    re_prepare = kw.pop("re_prepare", "bright")
    params = DepumpScalingParams(readout_rounds=ROUNDS, photon=PHOTON, **kw)
    hiding = params.hiding
    n = len(register)
    # [site, round, (measured, detected, errors)]; final (occupied, bright) per site
    oracle = np.zeros((n, ROUNDS, 3), dtype=np.int64)
    oracle_final = np.zeros((n, 2), dtype=np.int64)
    rng = np.random.default_rng(101)
    for _ in range(ORACLE_TRIALS):
        transcript, sites = sequential_readout_transcript(
            [None if c == VACANT else c for c in register], list(range(n)),
            hidden_depump_probability(hiding, params.hiding_power_mw), rng,
            rates=params.rates, photon=PHOTON,
            background_floor=hiding.background_floor_per_interval, rounds=ROUNDS,
            adaptive_rounds=params.adaptive_rounds, adaptive=params.adaptive_termination,
            idle_intervals=params.idle_intervals, re_prepare=re_prepare,
        )
        for round_index, site, prepared, inferred in transcript:
            cell = oracle[site, round_index]
            cell[0] += 1
            if prepared is not None and inferred is not None:
                cell[1] += 1
                cell[2] += inferred == 1
        oracle_final += [(s is not None, s == 2) for s in sites]

    kernel = np.zeros_like(oracle)
    codes = np.tile(np.array(register, dtype=np.int8), (KERNEL_TRIALS, 1))
    records, final = sequential_array_readout(
        codes, params, np.random.default_rng(202), re_prepare=re_prepare
    )
    for r, rec in enumerate(records):
        detected = (rec.prepared != VACANT) & (rec.inferred != VACANT)
        kernel[:, r] = np.stack(
            [np.count_nonzero(c, axis=0)
             for c in (rec.measured, detected, detected & (rec.inferred == F1))],
            axis=-1,
        )
    kernel_final = np.stack(
        (np.count_nonzero(final, axis=0), np.count_nonzero(final == F2, axis=0)), axis=-1
    )
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
    for site in range(len(oracle)):
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
        for what, k1, k2 in zip(("final occupancy", "final bright occupancy"),
                                oracle_final[site], kernel_final[site]):
            if not _agree(k1, ORACLE_TRIALS, k2, KERNEL_TRIALS):
                bad.append((site, what, (k1, k2)))
    assert not bad, bad


def test_adaptive_rounds_records_hold_only_measured_trials():
    codes = np.tile(uniform_register(3, F2), (2000, 1))
    params = DepumpScalingParams(readout_rounds=3, hiding_power_mw=0.4, adaptive_rounds=True,
                                 rates=LOSSY)
    records, _ = sequential_array_readout(codes, params, np.random.default_rng(5),
                                          re_prepare="none")
    assert records[0].measured.all()
    # each round measures exactly the (trial, site) cells inferred present
    # in the round before; atoms lost in round 0 read vacant in round 1
    for prev, rec in zip(records, records[1:]):
        assert np.array_equal(rec.measured, prev.inferred != VACANT)
    last = records[-1]
    skipped = ~last.measured
    assert 0 < np.count_nonzero(skipped) < skipped.size
    assert last.inferred.shape == last.measured.shape
    assert np.all(last.inferred[skipped] == VACANT)


def test_array_readout_leaves_its_input_alone():
    codes = np.tile(np.array([F2, VACANT, F1], np.int8), (50, 1))
    before = codes.copy()
    params = DepumpScalingParams(readout_rounds=2, hiding_power_mw=0.0)
    records, final = sequential_array_readout(codes, params, np.random.default_rng(6))
    assert np.array_equal(codes, before)
    assert final.shape == codes.shape
    assert len(records) == 2
    assert all(rec.prepared.shape == rec.measured.shape == (50, 3) for rec in records)


def test_skipped_cells_keep_their_state():
    # no depump, so a cell changes only where it is measured; a dim probe
    # reads many present atoms vacant, so skipped cells hold atoms too
    params = DepumpScalingParams(
        readout_rounds=3, hiding_power_mw=0.0, adaptive_rounds=True, rates=LOSSY,
        photon=PhotonModel(bright_mean_full=2.0),
        hiding=HidingModel(depump_per_interval_unhidden=0.0, background_floor_per_interval=0.0),
    )
    records, final = sequential_array_readout(
        np.tile(uniform_register(4, F2), (2000, 1)), params, np.random.default_rng(12),
        re_prepare="none",
    )
    assert records[0].measured.all()
    # each later round's skipped cells, as the next round or the final state finds them
    for rec, after in zip(records[1:], [rec.prepared for rec in records[2:]] + [final]):
        skipped = ~rec.measured
        assert np.count_nonzero(rec.prepared[skipped] != VACANT) > 50
        assert np.array_equal(after[skipped], rec.prepared[skipped])
        assert np.all(rec.inferred[skipped] == VACANT)


@pytest.mark.parametrize("adaptive", [True, False])
def test_measure_site_draws_an_array_as_its_ravel(adaptive):
    # one readout round measures the whole (trials, sites) array in the
    # draws a flat array of its cells in C order would take
    codes = np.random.default_rng(8).integers(VACANT, F2 + 1, (300, 7), dtype=np.int8)
    params = DepumpScalingParams(rates=LOSSY, adaptive_termination=adaptive)
    grid_rng, flat_rng = np.random.default_rng(9), np.random.default_rng(9)
    grid = measure_site(codes, params, grid_rng)
    flat = measure_site(codes.ravel(), params, flat_rng)
    for g, f in zip(grid, flat):
        assert g.shape == codes.shape
        assert np.array_equal(g.ravel(), f)
    assert grid_rng.random() == flat_rng.random()  # both took the same draws


def test_stacked_interval_codes_draw_as_two_calls_in_order():
    # measure_site samples its hyperfine and occupation intervals in one call
    codes = np.random.default_rng(10).integers(VACANT, F2 + 1, (2, 1000), dtype=np.int8)
    both_rng, halves_rng = np.random.default_rng(11), np.random.default_rng(11)
    both = sample_adaptive_interval(codes, PHOTON, both_rng)
    halves = [sample_adaptive_interval(half, PHOTON, halves_rng) for half in codes]
    for field in ("counts", "duration_us", "bright"):
        assert np.array_equal(getattr(both, field), [getattr(h, field) for h in halves])
    assert both_rng.random() == halves_rng.random()


def test_array_interval_shapes(rng):
    for shape in ((4,), (2, 4)):
        codes = np.resize(np.array([F2, F1, VACANT, F2], dtype=np.int8), shape)
        out = sample_adaptive_interval(codes, PHOTON, rng)
        assert out.counts.shape == out.duration_us.shape == out.bright.shape == shape
        assert np.array_equal(out.bright, out.counts >= PHOTON.threshold_counts)
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
    # both fit blocks are the whole LinearFit, standard errors included
    fit_keys = {"intercept", "slope", "intercept_stderr", "slope_stderr"}
    assert set(summaries[0]["error_vs_size"]) == fit_keys
    assert set(summaries[0]["first_round_error_vs_position"]) == fit_keys
