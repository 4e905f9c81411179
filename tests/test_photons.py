import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavreg import (
    F1,
    F2,
    VACANT,
    CavityParams,
    ConfigurationError,
    DetectorModel,
    PhotonModel,
    adaptive_reduction_factors,
    cooperativity,
    sample_adaptive_interval,
    sample_full_interval,
    uniform_register,
)
from cavreg.photons import (
    GUIDE_BUCKETS,
    MAX_MEAN_COUNTS,
    MIN_CELL_PROB,
    outcome_table,
    sample_adaptive_bright_batch,
)

from oracles import (
    adaptive_interval_reference,
    adaptive_outcome_enumeration,
    adaptive_stopping_enumeration,
    poisson_log_pmf,
)


def test_cooperativity_default_parameters():
    # 2g0 = 1.1 MHz, kappa = 0.10 MHz, gamma = 6.0 MHz
    assert cooperativity(CavityParams()) == pytest.approx(2.0166666, abs=1e-6)


def test_cooperativity_limits_and_scaling():
    tiny = cooperativity(CavityParams(g0_mhz=1e-9))
    assert tiny == pytest.approx(0.0, abs=1e-12)
    base = cooperativity(CavityParams(g0_mhz=0.55))
    doubled = cooperativity(CavityParams(g0_mhz=1.10))
    assert doubled == pytest.approx(4.0 * base)


def test_invalid_models_rejected():
    with pytest.raises(ConfigurationError):
        CavityParams(kappa_mhz=0.0)
    # a nan rate made the cooperativity nan, an infinite one made it 0 or inf
    for name in ("g0_mhz", "kappa_mhz", "gamma_mhz"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match=f"^{name}: {value!r}"):
                CavityParams(**{name: value})
    with pytest.raises(ConfigurationError):
        PhotonModel(threshold_counts=0)
    with pytest.raises(ConfigurationError):
        PhotonModel(full_interval_us=200.0, sub_interval_us=30.0)
    # an outcome table of 2e11 sub-intervals would never finish building
    with pytest.raises(ConfigurationError, match="exceed 1000"):
        PhotonModel(sub_interval_us=1e-9)
    # the outcome table of a 1e8-count mean would need gigabytes
    for model in (
        lambda: PhotonModel(bright_mean_full=1e8),
        lambda: PhotonModel(detector=DetectorModel(dark_rate_hz=1e12)),  # 4e8 dark counts
    ):
        with pytest.raises(ConfigurationError, match="exceeds 1e\\+06"):
            model()
    with pytest.raises(ConfigurationError, match="photon.bright_mean_full: nan"):
        PhotonModel(bright_mean_full=math.nan)
    PhotonModel(bright_mean_full=MAX_MEAN_COUNTS, detector=DetectorModel(dark_rate_hz=0.0))


def test_full_interval_means():
    model = PhotonModel()
    assert model.mean_full(False) == pytest.approx(0.024)  # 2 * 60/s * 200 us
    assert model.mean_full(True) == pytest.approx(15.024)


def test_full_interval_sampling_means(rng):
    model = PhotonModel()
    n = 100_000
    dark = sample_full_interval(uniform_register(2000, F1), model, rng).counts
    assert abs(dark.mean() - 0.024) < 4 * math.sqrt(0.024 / 2000)
    bright = rng.poisson(model.mean_full(True), size=n)
    assert abs(bright.mean() - 15.024) < 4 * math.sqrt(15.024 / n)


def test_vacant_site_looks_like_dark_atom(rng):
    model = PhotonModel()
    out = sample_full_interval(uniform_register(1, VACANT), model, rng)
    assert out.duration_us.tolist() == [model.full_interval_us]
    # identical Poisson mean as a dark atom by construction
    assert model.mean_full(False) == pytest.approx(0.024)


@pytest.mark.parametrize(
    "model", [PhotonModel(), PhotonModel(full_interval_us=0.3, sub_interval_us=0.1)]
)
def test_threshold_consistency_full_and_adaptive(model, rng):
    for state in (F1, F2, VACANT):
        codes = uniform_register(300, state)
        full = sample_full_interval(codes, model, rng)
        for out in (full, sample_adaptive_interval(codes, model, rng)):
            assert np.array_equal(out.bright, out.counts >= model.threshold_counts)
            assert np.all(out.duration_us <= model.full_interval_us)
            # a trial read dark never crossed, so it ran the full interval
            # exactly, not the 3 * 0.1 = 0.30000000000000004 of its stop index
            assert np.all(out.duration_us[~out.bright] == model.full_interval_us)
        assert np.all(full.duration_us == model.full_interval_us)


class _ScriptedRng:
    """Duck-typed stand-in returning a fixed Poisson sequence, for the
    per-sub-interval reference loop."""

    def __init__(self, values):
        self._values = list(values)

    def poisson(self, lam):
        return self._values.pop(0)


def test_adaptive_stops_at_first_crossing():
    model = PhotonModel(threshold_counts=1)
    out = adaptive_interval_reference(uniform_register(1, F2), model, _ScriptedRng([3]))
    assert (out.counts.tolist(), out.duration_us.tolist(), out.bright.tolist()) == (
        [3], [20.0], [True]
    )


def test_adaptive_runs_full_interval_when_below_threshold():
    model = PhotonModel()  # threshold 2, 10 sub-intervals
    out = adaptive_interval_reference(uniform_register(1, F1), model, _ScriptedRng([0] * 9 + [1]))
    assert (out.counts.tolist(), out.duration_us.tolist(), out.bright.tolist()) == (
        [1], [200.0], [False]
    )


def test_dark_adaptive_full_duration_probability(rng):
    model = PhotonModel()
    n = 20_000
    out = sample_adaptive_interval(uniform_register(n, F1), model, rng)
    full_and_dark = np.count_nonzero((out.duration_us == model.full_interval_us) & ~out.bright)
    expected = 0.9997165667920991  # exp(-0.024) * (1 + 0.024)
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(full_and_dark / n - expected) < 4 * se


def test_adaptive_matches_enumeration_oracle(rng):
    model = PhotonModel()
    oracle = adaptive_stopping_enumeration(model.mean_full(True), 10, 2)
    assert oracle["expected_stop_index"] == pytest.approx(1.8396842602, abs=1e-9)
    assert oracle["expected_counts"] == pytest.approx(2.7639416325, abs=1e-9)
    # Wald identity on the oracle itself
    lam_sub = model.mean_full(True) / 10
    assert oracle["expected_counts"] == pytest.approx(
        lam_sub * oracle["expected_stop_index"], rel=1e-9
    )
    # the outcome table's exact moments, bright and dark
    table = outcome_table(model, True)
    for bright in (True, False):
        want = adaptive_stopping_enumeration(model.mean_full(bright), 10, 2)
        cells = table.bright == bright
        assert abs(table.prob[cells] @ table.stop[cells] - want["expected_stop_index"]) < 1e-12
        assert abs(table.prob[cells] @ table.counts[cells] - want["expected_counts"]) < 1e-12

    counts, durations = sample_adaptive_bright_batch(model, 100_000, rng)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - oracle["expected_counts"]) < 4 * se
    se_d = durations.std(ddof=1) / math.sqrt(len(durations))
    expected_dur = oracle["expected_stop_index"] * 20.0
    assert abs(durations.mean() - expected_dur) < 4 * se_d


def test_table_and_reference_loop_agree(rng):
    # the table kernel against the draw-every-sub-interval reference loop
    model = PhotonModel()
    n = 30_000
    kernel = sample_adaptive_bright_batch(model, n, rng)
    out = adaptive_interval_reference(uniform_register(n, F2), model, rng)
    reference = out.counts, out.duration_us
    for got, want in zip(kernel, reference):
        se = math.sqrt(got.var(ddof=1) / n + want.var(ddof=1) / n)
        assert abs(got.mean() - want.mean()) < 4 * se


def _chi_square_p(observed: dict, expected: dict, n: int) -> float:
    """Chi-square p-value of observed cell counts against exact cell
    probabilities, pooling cells expected below 5 times into one bin."""
    from scipy import stats

    pairs = [(observed.get(cell, 0), n * p) for cell, p in expected.items()]
    big = [(o, e) for o, e in pairs if e >= 5]
    rest = (n - sum(o for o, _ in big), n - sum(e for _, e in big))
    obs, exp = zip(*(big + [rest] if rest[1] > 0 else big))
    assert set(observed) <= set(expected)
    return stats.chisquare(obs, exp).pvalue


@pytest.mark.parametrize("threshold", [1, 2, 3])
@pytest.mark.parametrize("sub_interval_us", [200.0, 20.0])
@pytest.mark.parametrize("mean", [0.5, 15.0])
def test_outcome_table_cell_frequencies(mean, sub_interval_us, threshold, rng):
    # dark (F1, vacant) and bright codes share one call; each half of the
    # table is checked against the enumerated (stop, counts) law
    model = PhotonModel(bright_mean_full=mean, sub_interval_us=sub_interval_us,
                        threshold_counts=threshold)
    n = 100_000
    codes = rng.permutation(np.repeat(np.array([F2, F1, VACANT], np.int8), [n, n // 2, n // 2]))
    out = sample_adaptive_interval(codes, model, rng)
    stops = np.rint(out.duration_us / sub_interval_us).astype(int)
    for bright in (True, False):
        rows = (codes == F2) == bright
        cells, freqs = np.unique(np.stack([stops[rows], out.counts[rows]]), axis=1,
                                 return_counts=True)
        observed = dict(zip(map(tuple, cells.T.tolist()), freqs.tolist()))
        expected = adaptive_outcome_enumeration(model.mean_full(bright), model.n_sub, threshold)
        assert _chi_square_p(observed, expected, n) > 1e-3


def test_outcome_table_without_dark_counts():
    model = PhotonModel(detector=DetectorModel(dark_rate_hz=0.0))
    table = outcome_table(model, True)
    dark = ~table.bright
    assert (table.stop[dark].tolist(), table.counts[dark].tolist()) == ([10], [0])
    assert table.prob[dark].tolist() == [1.0]
    out = sample_adaptive_interval(uniform_register(1000, F1), model, np.random.default_rng(1))
    assert not out.counts.any() and np.all(out.duration_us == model.full_interval_us)


def test_outcome_table_size_does_not_grow_with_threshold():
    t0 = time.perf_counter()
    table = outcome_table(PhotonModel(threshold_counts=10**6), True)
    assert time.perf_counter() - t0 < 0.5
    assert table.prob.size < 1000
    # nothing crosses: every cell is a full interval below threshold
    assert np.all(table.stop == 10) and table.counts.max() < 100
    assert outcome_table(PhotonModel(), True).prob.size < 1000


@pytest.mark.parametrize("adaptive", [True, False])
def test_outcome_table_is_cached_per_model(adaptive):
    table = outcome_table(PhotonModel(threshold_counts=3), adaptive)
    assert outcome_table(PhotonModel(threshold_counts=3), adaptive) is table
    assert outcome_table(PhotonModel(threshold_counts=2), adaptive) is not table
    assert outcome_table(PhotonModel(threshold_counts=3), not adaptive) is not table
    assert not table.prob.flags.writeable
    assert not table.guide.flags.writeable
    assert table.guide.size == 2 * GUIDE_BUCKETS + 1


GUIDE_MODELS = {
    "shipped": PhotonModel(),
    "threshold 1": PhotonModel(threshold_counts=1),
    "threshold 3": PhotonModel(threshold_counts=3),
    "mean 0.5": PhotonModel(bright_mean_full=0.5),
    "1000 sub-intervals": PhotonModel(sub_interval_us=0.2),  # more cells than 2 G
    "largest mean": PhotonModel(bright_mean_full=MAX_MEAN_COUNTS - 1),
    "no dark counts": PhotonModel(detector=DetectorModel(dark_rate_hz=0.0)),
    "threshold 1e6": PhotonModel(threshold_counts=10**6),
}


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("name", GUIDE_MODELS)
def test_guide_lookup_equals_binary_search(name, adaptive, rng):
    table = outcome_table(GUIDE_MODELS[name], adaptive)
    bounds = np.arange(2 * GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    points = np.concatenate((table.edges, bounds, [0.0, 1.0, 2.0], 2.0 * rng.random(200_000)))
    probes = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 2.0)))
    probes = probes[(probes >= 0.0) & (probes <= 2.0)]
    assert np.array_equal(table.cells(probes), np.searchsorted(table.edges, probes, "right") - 1)
    # each probe's bucket is the one the guide was built for: v * G is exact
    bucket = (probes * GUIDE_BUCKETS).astype(np.intp)
    assert np.all((bucket / GUIDE_BUCKETS <= probes) & (probes < (bucket + 1) / GUIDE_BUCKETS))
    # a bucket names its cell iff its first point and its last float share one
    lo = np.searchsorted(table.edges, bounds, "right") - 1
    hi = np.searchsorted(table.edges, np.nextafter(bounds + 1.0 / GUIDE_BUCKETS, 0.0), "right") - 1
    assert np.array_equal(table.guide, np.where(lo == hi, lo, -1))


def test_adaptive_sampling_draws_one_uniform_per_code(rng):
    # some draws land in split buckets; their binary search draws nothing
    codes = rng.permutation(np.repeat(np.array([F2, F1, VACANT], np.int8), [5000, 3000, 2000]))
    sampled, reference = np.random.default_rng(5), np.random.default_rng(5)
    table = outcome_table(PhotonModel(), True)
    v = reference.random(codes.size) + (codes == F2)
    assert (table.guide[(v * GUIDE_BUCKETS).astype(np.intp)] < 0).any()
    out = sample_adaptive_interval(codes, PhotonModel(), sampled)
    assert sampled.bit_generator.state == reference.bit_generator.state
    cell = np.searchsorted(table.edges, v, "right") - 1
    assert np.array_equal(out.counts, table.counts[cell])


def test_reduction_factors_default(rng):
    model = PhotonModel()
    f = adaptive_reduction_factors(model, 100_000, rng)
    assert 5.0 < f["photon_factor"] < 5.9
    assert 5.0 < f["duration_factor"] < 5.9


def test_reduction_factors_trivial_limits(rng):
    # threshold far above the bright mean: never stops early
    never = adaptive_reduction_factors(PhotonModel(threshold_counts=60), 20_000, rng)
    assert never["duration_factor"] == pytest.approx(1.0)
    assert never["photon_factor"] == pytest.approx(1.0, abs=0.01)
    # a single check is a full interval
    single = adaptive_reduction_factors(
        PhotonModel(sub_interval_us=200.0), 20_000, rng
    )
    assert single["duration_factor"] == pytest.approx(1.0)
    assert single["photon_factor"] == pytest.approx(1.0, abs=0.01)
    with pytest.raises(ConfigurationError):
        adaptive_reduction_factors(PhotonModel(), 100, rng)


def test_adaptive_dominance(rng):
    model = PhotonModel()
    n = 50_000
    counts, durations = sample_adaptive_bright_batch(model, n, rng)
    full = rng.poisson(model.mean_full(True), size=n)
    assert counts.mean() < full.mean()
    assert durations.mean() < model.full_interval_us


def test_adaptive_mode_at_threshold_and_gap_below(rng):
    model = PhotonModel()
    counts, durations = sample_adaptive_bright_batch(model, 50_000, rng)
    values, freqs = np.unique(counts, return_counts=True)
    assert values[np.argmax(freqs)] == model.threshold_counts
    # stopped trials carry no mass below threshold
    stopped = durations < model.full_interval_us
    assert not np.any(counts[stopped] < model.threshold_counts)


def _full_half(model: PhotonModel, bright: bool, table=None) -> tuple[int, np.ndarray]:
    """(first count, law) of one half of the full-interval outcome table (the
    model's cached one unless `table` is given), checking that it holds one
    cell per count, all at the last sub-interval."""
    if table is None:
        table = outcome_table(model, False)
    half = table.bright == bright
    counts, law = table.counts[half], table.prob[half]
    assert np.array_equal(counts, counts[0] + np.arange(counts.size))
    assert np.all(table.stop[half] == model.n_sub)
    return int(counts[0]), law


@pytest.mark.parametrize(
    "model",
    [
        PhotonModel(),
        PhotonModel(bright_mean_full=0.3, detector=DetectorModel(dark_rate_hz=1e4)),
        PhotonModel(bright_mean_full=MAX_MEAN_COUNTS - 1),
    ],
)
def test_full_table_is_the_trimmed_poisson_pmf(model):
    for bright in (True, False):
        mean = model.mean_full(bright)
        first, law = _full_half(model, bright)
        exact = np.exp([poisson_log_pmf(k, mean) for k in range(first, first + law.size)])
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(law, exact, rtol=1e-6, atol=0.0)
        # every kept cell reaches MIN_CELL_PROB, and the first dropped ones do not
        assert exact.min() >= MIN_CELL_PROB * (1 - 1e-6)
        for k in (first - 1, first + law.size):
            assert k < 0 or math.exp(poisson_log_pmf(k, mean)) < MIN_CELL_PROB * (1 + 1e-6)


@pytest.mark.parametrize("adaptive", [False, True])
def test_full_table_evaluates_only_a_window_around_the_mean(adaptive):
    # at the largest mean the bright half keeps 16 400 full or 5 275 adaptive
    # cells; pmfs over every count from 0 peaked at about 31 and 49 MB of
    # traced memory
    model = PhotonModel(bright_mean_full=MAX_MEAN_COUNTS - 1)
    tracemalloc.start()
    try:
        table = outcome_table.__wrapped__(model, adaptive)  # built here, not read from the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if adaptive:
        assert table.bright.sum() == 5_275
    else:
        first, law = _full_half(model, True, table)
        assert first > 0 and law.size == 16_400
    assert peak < 3 * 2**20


def test_full_table_without_dark_counts():
    first, law = _full_half(PhotonModel(detector=DetectorModel(dark_rate_hz=0.0)), False)
    assert first == 0 and law.tolist() == [1.0]


def test_full_interval_counts_are_poisson(rng):
    from scipy import stats

    model = PhotonModel()
    n = 100_000
    samples = sample_full_interval(uniform_register(n, F2), model, rng).counts
    kmax = samples.max()
    observed = np.bincount(samples, minlength=kmax + 1).astype(float)
    expected = np.array(
        [stats.poisson.pmf(k, model.mean_full(True)) for k in range(kmax + 1)]
    )
    expected[-1] += 1.0 - expected.sum()  # fold the tail
    expected *= n
    # merge low-expectation bins so the chi-square approximation holds
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    obs_m[-1] += acc_o
    exp_m[-1] += acc_e
    chi2, p = stats.chisquare(obs_m, exp_m)
    assert p > 0.01


@settings(max_examples=25, deadline=None)
@given(
    mean=st.floats(min_value=0.5, max_value=40.0),
    threshold=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_threshold_consistency_property(mean, threshold, seed):
    rng = np.random.default_rng(seed)
    model = PhotonModel(bright_mean_full=mean, threshold_counts=threshold)
    for state in (F2, F1):
        out = sample_adaptive_interval(uniform_register(1, state), model, rng)
        assert np.array_equal(out.bright, out.counts >= threshold)
        assert 0 < out.duration_us[0] <= model.full_interval_us
