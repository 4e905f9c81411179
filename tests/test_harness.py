import dataclasses
import itertools
import json
import math
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from cavreg import ConfigurationError, Estimate, ExperimentSpec, run
from cavreg.cli import _build_parser, main
from cavreg.config import SCHEMA, load_config
from cavreg.harness import (
    EXPERIMENTS,
    DepumpScalingParams,
    ErrorScalingParams,
    HISTOGRAM_CHUNK,
    LifetimeParams,
    SearchCostParams,
    _json_default,
    _sweep,
    write_metadata,
    write_result_csv,
)
import cavreg.streams
from cavreg.photons import MAX_MEAN_COUNTS, PhotonModel, outcome_table
from cavreg.search import (Placement, SearchProblem, Strategy, enumerate_mean_intervals,
                           placements, run_search, sample_register)
from cavreg.streams import CHUNK_TRIALS, chunk_sizes, map_chunks, stream

from cavreg.repcode import simulate_idling_bit
from oracles import poisson_pmf


def test_estimate_from_binomial():
    est = Estimate.from_binomial(25, 100)
    assert est.mean == 0.25
    assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100))
    empty = Estimate.from_binomial(0, 0)
    assert math.isnan(empty.mean) and math.isnan(empty.stderr) and empty.n == 0


def test_stream_determinism_and_independence():
    a = stream(7, 1, 2).random(4)
    b = stream(7, 1, 2).random(4)
    c = stream(7, 1, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(stream(8, 1, 2).random(4), a)


def test_chunk_sizes_cover_total():
    assert chunk_sizes(10_000, 4096) == [4096, 4096, 1808]
    assert chunk_sizes(8192, 4096) == [4096, 4096]


@pytest.mark.parametrize("cores, n_chunks, workers", [(4, 10, 4), (4, 3, 3), (64, 10, 10)])
def test_thread_pool_is_clamped_to_chunks_and_cores(monkeypatch, cores, n_chunks, workers):
    sizes = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cavreg.streams, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(cavreg.streams.os, "cpu_count", lambda: cores)
    out = map_chunks(lambda c: c, range(n_chunks), threads=10**6)
    assert out == list(range(n_chunks))
    assert sizes == [workers]


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        run(ExperimentSpec("nonsense"))
    with pytest.raises(ConfigurationError):
        run(ExperimentSpec("histogram", parameters=SearchCostParams()))


@pytest.mark.parametrize("exp", EXPERIMENTS.values(), ids=lambda e: e.name)
def test_registry_record_reaches_cli_config_and_run(exp):
    args = _build_parser().parse_args([exp.command, "--trials", "5"])
    assert args.experiment is exp
    assert isinstance(exp.build(load_config()), exp.params)
    # the shipped config and the params class defaults are one set of values
    assert exp.build(load_config()) == exp.params()
    assert ("run", exp.trials_key) in SCHEMA
    wrong = next(e.params for e in EXPERIMENTS.values() if e.params is not exp.params)
    with pytest.raises(ConfigurationError, match="expects"):
        run(ExperimentSpec(exp.name, wrong(), trials=5))


def test_search_cost_p_zero_is_exactly_one():
    spec = ExperimentSpec(
        "search_cost",
        SearchCostParams(sizes=[4], bright_probabilities=[0.0]),
        trials=2000,
        master_seed=3,
    )
    rows = run(spec).rows
    row = next(r for r in rows if r["strategy"] == "global_then_sequential")
    assert row["mean_intervals"] == 1.0
    assert row["stderr"] == 0.0
    assert row["analytic"] == 1.0


MULTI_CHUNK = 2 * CHUNK_TRIALS + 1  # three chunks per point, the last one short


@pytest.mark.parametrize("placement", list(Placement), ids=lambda placement: placement.value)
@pytest.mark.parametrize("trials", [1, CHUNK_TRIALS, MULTI_CHUNK])
def test_pattern_priced_search_moments_equal_the_per_trial_search(trials, placement,
                                                                  monkeypatch):
    # a noiseless chunk searches each distinct bright pattern of its one
    # sample once; the sums of every strategy's per-trial costs on that
    # sample, and of their squares, must come out bit for bit
    params = SearchCostParams(sizes=[1, 2, 10, 64], bright_probabilities=[0.0, 0.1, 1.0],
                              strategies=list(Strategy), placement=placement)
    at_most_one = placement is Placement.AT_MOST_ONE_BRIGHT
    reference = []
    for i, (n, p) in enumerate(itertools.product(params.sizes, params.bright_probabilities)):
        moments = np.zeros((len(params.strategies), 2))
        for c, size in enumerate(chunk_sizes(trials)):
            codes = sample_register(SearchProblem(n, p, placement), stream(11, i, c), size)
            for s, strategy in enumerate(params.strategies):
                used = run_search(codes, strategy, at_most_one=at_most_one).intervals_used
                moments[s] += [np.sum(used), np.sum(used**2)]
        reference.append(moments)
    swept = []

    def recording_sweep(*args, **kwargs):
        swept.extend(_sweep(*args, **kwargs))
        return swept

    monkeypatch.setattr("cavreg.harness._sweep", recording_sweep)
    run(ExperimentSpec("search_cost", params, trials=trials, master_seed=11))
    assert np.array_equal(swept, reference)


@pytest.mark.parametrize("n", [1, 2, 10, 64])
def test_placement_costs_weigh_up_to_the_enumerated_mean(n):
    for strategy, p in itertools.product(Strategy, [0.0, 0.1, 1.0]):
        cost = run_search(placements(n), strategy).intervals_used
        weights = np.r_[np.full(n, p / n), 1.0 - p]
        assert weights @ cost == enumerate_mean_intervals(SearchProblem(n, p), strategy)


@pytest.mark.parametrize(
    "experiment,params,trials",
    [
        ("histogram", PhotonModel(), 3000),
        ("search_cost", SearchCostParams(sizes=[3, 6], bright_probabilities=[0.0, 0.3]), 400),
        ("error_scaling", ErrorScalingParams(flip_sweep=[0.05, 0.2], distances=[1, 3]), 3000),
        ("lifetime", LifetimeParams(distances=[1, 3], rounds=8), 3000),
        ("depump_scaling", DepumpScalingParams(sizes=[1, 3], readout_rounds=2), 60),
        ("histogram", PhotonModel(), MULTI_CHUNK),
        ("histogram", PhotonModel(), 2 * HISTOGRAM_CHUNK + 1),  # three histogram chunks
        ("search_cost", SearchCostParams(sizes=[3, 6], bright_probabilities=[0.0, 0.3]), MULTI_CHUNK),
        ("error_scaling", ErrorScalingParams(flip_sweep=[0.05, 0.2], distances=[1, 3]), MULTI_CHUNK),
        ("lifetime", LifetimeParams(distances=[1, 3], rounds=8), MULTI_CHUNK),
    ],
)
def test_thread_count_never_changes_results(experiment, params, trials, tmp_path, monkeypatch):
    # four cores, so threads 4 and 16 run four workers
    monkeypatch.setattr(cavreg.streams.os, "cpu_count", lambda: 4)
    outs = []
    for threads in (1, 2, 4, 16):
        spec = ExperimentSpec(experiment, params, trials=trials, master_seed=99, threads=threads)
        result = run(spec)
        path = tmp_path / f"t{threads}.csv"
        write_result_csv(path, result)
        write_metadata(f"{path}.meta.json", spec, result)
        outs.append((path.read_bytes(), Path(f"{path}.meta.json").read_bytes()))
    assert outs[1:] == outs[:1] * 3


def _numpy_numbers(value, integers: bool):
    """`value` with each float an np.float64 and, if `integers`, each int
    but a bool an np.int64, through nested params, lists and tuples."""
    if dataclasses.is_dataclass(value):
        fields = {f.name: _numpy_numbers(getattr(value, f.name), integers)
                  for f in dataclasses.fields(value)}
        return dataclasses.replace(value, **fields)
    if isinstance(value, (list, tuple)):
        return type(value)(_numpy_numbers(v, integers) for v in value)
    if isinstance(value, float):
        return np.float64(value)
    if integers and isinstance(value, int) and not isinstance(value, bool):
        return np.int64(value)
    return value


@pytest.mark.parametrize("integers", [False, True], ids=["numpy_floats", "numpy_integers"])
@pytest.mark.parametrize(
    "experiment,params,trials",
    [
        ("histogram", PhotonModel(), 3000),
        ("depump_scaling", DepumpScalingParams(sizes=[1, 3], readout_rounds=2), 60),
        ("search_cost", SearchCostParams(sizes=[2, 5], bright_probabilities=[0.0, 0.25]), 400),
        ("error_scaling", ErrorScalingParams(flip_sweep=[0.05, 0.2], distances=[1, 3]), 3000),
        ("lifetime", LifetimeParams(distances=[1, 3], rounds=8), 3000),
    ],
)
def test_numpy_numbers_write_the_same_bytes(experiment, params, trials, integers, tmp_path):
    # a sweep built in Python from numpy arrays is the same run, cell for cell
    counts = {"trials": trials, "master_seed": 99, "threads": 2}
    numpy_counts = {"trials": np.int64(trials), "master_seed": np.uint64(99),
                    "threads": np.int64(2)} if integers else counts
    specs = {"python": ExperimentSpec(experiment, params, **counts),
             "numpy": ExperimentSpec(experiment, _numpy_numbers(params, integers), **numpy_counts)}
    outs = []
    for name, spec in specs.items():
        path = tmp_path / f"{name}.csv"
        result = run(spec)
        write_result_csv(path, result)
        write_metadata(f"{path}.meta.json", spec, result)
        outs.append((path.read_bytes(), Path(f"{path}.meta.json").read_bytes()))
    assert outs[1] == outs[0]


@pytest.mark.parametrize("threads", [1, 4])
def test_sweep_reduces_each_point_in_chunk_order(threads, monkeypatch):
    # list `+` keeps order: each point's kernel reads its own chunks' streams,
    # keyed by its position in the list, in chunk order; a count-law point
    # (chunk None) is one call of all trials from its chunk-0 stream, made on
    # the calling thread
    monkeypatch.setattr(cavreg.streams.os, "cpu_count", lambda: 4)
    callers = []

    def kernel(name, size, rng):
        return [(name, size, int(rng.integers(2**62)))]

    def count_law(size, rng):
        callers.append(threading.get_ident())
        return kernel("law", size, rng)

    def chunked(name, i, chunk):
        return [(name, size, int(stream(3, i, c).integers(2**62)))
                for c, size in enumerate(chunk_sizes(MULTI_CHUNK, chunk))]

    spec = ExperimentSpec("histogram", trials=MULTI_CHUNK, master_seed=3, threads=threads)
    per_trial = [(partial(kernel, name), CHUNK_TRIALS) for name in "abc"]
    assert _sweep(spec, per_trial) == [chunked(name, i, CHUNK_TRIALS)
                                       for i, name in enumerate("abc")]
    mixed = [(partial(kernel, "a"), 3000), (count_law, None), (partial(kernel, "c"), CHUNK_TRIALS)]
    law = [("law", MULTI_CHUNK, int(stream(3, 1, 0).integers(2**62)))]
    assert _sweep(spec, mixed) == [chunked("a", 0, 3000), law, chunked("c", 2, CHUNK_TRIALS)]
    assert callers == [threading.get_ident()]


@pytest.mark.parametrize("threads, pools", [(1, 0), (2, 1), (4, 1)])
def test_one_run_opens_at_most_one_pool(threads, pools, monkeypatch):
    opened = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cavreg.streams, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(cavreg.streams.os, "cpu_count", lambda: 4)
    # 3 chunks for each of 3 per-trial code points; the idling bit is one count-law draw
    params = LifetimeParams(distances=[1, 3, 5], rounds=8)
    run(ExperimentSpec("lifetime", params, trials=MULTI_CHUNK, master_seed=5, threads=threads))
    assert opened == [threads] * pools
    # error-scaling's points are all count laws, drawn on the calling thread
    # without a map_chunks call
    opened.clear()
    mapped = []
    monkeypatch.setattr("cavreg.harness.map_chunks", lambda *args: mapped.append(args))
    params = ErrorScalingParams(flip_sweep=[0.02, 0.05, 0.1, 0.2], distances=[1, 3, 5])
    run(ExperimentSpec("error_scaling", params, trials=MULTI_CHUNK, master_seed=5, threads=4))
    assert opened == [] and mapped == []


def test_lifetime_idling_bit_is_one_count_law_draw():
    # the d = 0 rows are one chain of all trials from point 0's chunk-0 stream
    params = LifetimeParams(distances=[1, 3], rounds=8)
    result = run(ExperimentSpec("lifetime", params, trials=MULTI_CHUNK, master_seed=21, threads=2))
    times = (params.idle_ms + params.round_overhead_ms) * np.arange(1, params.rounds + 1)
    errors = simulate_idling_bit(params.idle_model, times, MULTI_CHUNK, stream(21, 0, 0))
    assert [row["p_err"] for row in result.rows if row["d"] == 0] == (errors / MULTI_CHUNK).tolist()


def test_histogram_full_conditions_are_one_multinomial_draw_each():
    # above one histogram chunk, each full-interval condition is still one
    # multinomial draw of all trials from its point's chunk-0 stream
    trials, photon = 2 * HISTOGRAM_CHUNK + 1, PhotonModel()
    result = run(ExperimentSpec("histogram", photon, trials=trials, master_seed=8, threads=2))
    full = outcome_table(photon, False)
    for i, cond, half in [(0, "bright_full", full.bright), (2, "dark_full", ~full.bright)]:
        frequency = stream(8, i, 0).multinomial(trials, full.prob[half])
        expected = [(int(c), int(f)) for c, f in zip(full.counts[half], frequency) if f]
        rows = [(row["counts"], row["frequency"]) for row in result.rows if row["condition"] == cond]
        assert rows == expected, cond


def test_metadata_is_strict_json(tmp_path):
    # a one-trial lifetime fit is degenerate: its NaNs are written as null,
    # which a strict reader accepts, and the CSV keeps its nan cells
    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")

    out = tmp_path / "l.csv"
    assert main(["lifetime", "--trials", "1", "--seed", "1", "--out", str(out)]) == 0
    meta = json.loads(Path(f"{out}.meta.json").read_text(), parse_constant=reject)
    fits = meta["summary"]["fits"]
    assert any(fit["tau_ms"] is None and fit["tau_stderr"] is None for fit in fits.values())
    assert any(fit.get("extension_factor", 0.0) is None for fit in fits.values())
    assert ",nan" in out.read_text()


def test_metadata_writes_numpy_scalars_and_rejects_other_objects():
    params = DepumpScalingParams(adaptive_rounds=np.bool_(True))
    assert json.loads(json.dumps(params, default=_json_default))["adaptive_rounds"] is True
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        json.dumps(object(), default=_json_default)


def test_map_chunks_returns_item_order_when_early_items_finish_last(monkeypatch):
    monkeypatch.setattr(cavreg.streams.os, "cpu_count", lambda: 4)
    n = 12
    calls, finished = [], []
    lock = threading.Lock()

    def slow_early(i):
        with lock:
            calls.append(i)
        time.sleep(0.005 * (n - i))
        with lock:
            finished.append(i)
        return i * i

    assert map_chunks(slow_early, range(n), 4) == [i * i for i in range(n)]
    assert sorted(calls) == list(range(n))
    assert finished != sorted(finished)


def test_repeat_run_is_bit_identical(tmp_path):
    spec = ExperimentSpec(
        "histogram", PhotonModel(), trials=2000, master_seed=11, threads=2
    )
    paths = []
    for i in (0, 1):
        result = run(spec)
        path = tmp_path / f"h{i}.csv"
        write_result_csv(path, result)
        write_metadata(str(path) + ".meta.json", spec, result)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (
        (tmp_path / "h0.csv.meta.json").read_bytes()
        == (tmp_path / "h1.csv.meta.json").read_bytes()
    )
    meta = json.loads((tmp_path / "h0.csv.meta.json").read_text())
    assert meta["master_seed"] == 11
    assert meta["version"].startswith("cavreg-")


# The config section of each experiment's own keys; the histogram's params
# are its PhotonModel.
OWN_SECTION = {"histogram": "photon", "depump_scaling": "readout", "search_cost": "search",
               "error_scaling": "code", "lifetime": "code"}


@pytest.mark.parametrize("exp", EXPERIMENTS.values(), ids=lambda e: e.name)
def test_spec_without_parameters_records_the_defaults(exp, tmp_path):
    # the run and its .meta.json both see the params class defaults
    bare = ExperimentSpec(exp.name, trials=10, master_seed=5)
    explicit = ExperimentSpec(exp.name, exp.params(), trials=10, master_seed=5)
    assert bare.parameters == exp.params()
    metas = []
    for name, spec in (("bare", bare), ("explicit", explicit)):
        path = tmp_path / f"{name}.meta.json"
        write_metadata(str(path), spec, run(spec))
        metas.append(path.read_bytes())
    assert metas[0] == metas[1]
    fields = json.loads(metas[0])["parameters"]
    assert set(fields) == {f.name for f in dataclasses.fields(exp.params)}
    # a recorded parameter reads against its config: every name but a nested
    # model's is a key of the experiment's own section
    flat = [name for name, value in fields.items() if not isinstance(value, dict)]
    assert [name for name in flat if (OWN_SECTION[exp.name], name) not in SCHEMA] == []


def test_stderr_scales_as_inverse_sqrt_trials():
    # 100x the trials should shrink the standard error ~10x (within 20%)
    def stderr_at(trials):
        spec = ExperimentSpec(
            "search_cost",
            SearchCostParams(sizes=[6], bright_probabilities=[0.3]),
            trials=trials,
            master_seed=17,
        )
        rows = run(spec).rows
        return next(r for r in rows if r["strategy"] == "global_then_sequential")["stderr"]

    ratio = stderr_at(300) / stderr_at(30_000)
    assert abs(ratio - 10.0) / 10.0 < 0.2


def test_histogram_has_three_conditions():
    spec = ExperimentSpec("histogram", trials=4000, master_seed=2)
    result = run(spec)
    conditions = {r["condition"] for r in result.rows}
    assert conditions == {"bright_full", "bright_adaptive", "dark_full"}
    total = sum(r["frequency"] for r in result.rows if r["condition"] == "dark_full")
    assert total == 4000
    # dark counts rarely fire: mode of the dark histogram is zero counts
    dark = [r for r in result.rows if r["condition"] == "dark_full"]
    assert max(dark, key=lambda r: r["frequency"])["counts"] == 0
    adaptive = [r for r in result.rows if r["condition"] == "bright_adaptive"]
    assert max(adaptive, key=lambda r: r["frequency"])["counts"] == 2


@pytest.mark.parametrize("cond", ["bright_full", "dark_full"])
def test_histogram_full_interval_frequencies_follow_poisson(cond):
    # 25 chunks; each count within K sqrt(n p (1 - p)) of trials * the pmf,
    # the counts expected fewer than 5 times pooled into one cell
    K, trials = 4.5, 100_000
    model = PhotonModel()
    rows = run(ExperimentSpec("histogram", model, trials=trials, master_seed=12)).rows
    observed = {r["counts"]: r["frequency"] for r in rows if r["condition"] == cond}
    mean = model.mean_full(cond == "bright_full")
    pmf = {k: poisson_pmf(k, mean) for k in range(int(mean + 12 * math.sqrt(mean) + 50))}
    assert set(observed) <= set(pmf) and sum(observed.values()) == trials
    cells = [({k}, p) for k, p in pmf.items() if trials * p >= 5]
    cells.append((set(pmf) - set().union(*(ks for ks, _ in cells)),
                  1.0 - sum(p for _, p in cells)))
    for ks, p in cells:
        got = sum(observed.get(k, 0) for k in ks)
        assert abs(got - trials * p) <= K * math.sqrt(trials * p * (1 - p)), (sorted(ks)[:3], got)


def test_histogram_at_the_largest_mean_stays_small_and_fast():
    # the bright full-interval law keeps its 16 400 cells of at least 1e-18
    # around the mean.  The bounds are those of per-trial Poisson draws: 0.54 s
    # and 57 MB of peak traced memory at 1 thread on a 2-core host; a law over
    # every count from 0 took about 1.4 s and 400 MB there
    model = PhotonModel(bright_mean_full=MAX_MEAN_COUNTS - 1)
    spec = ExperimentSpec("histogram", model, trials=200_000, master_seed=5)
    elapsed = []
    for _ in range(2):
        outcome_table.cache_clear()  # the outcome tables are part of the run
        t0 = time.perf_counter()
        run(spec)
        elapsed.append(time.perf_counter() - t0)
    outcome_table.cache_clear()
    tracemalloc.start()
    try:
        result = run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(elapsed) < 0.54
    assert peak < 57 * 2**20
    totals = Counter()
    for r in result.rows:
        totals[r["condition"]] += r["frequency"]
    assert set(totals.values()) == {200_000}


def test_error_scaling_reports_exponents():
    spec = ExperimentSpec(
        "error_scaling",
        ErrorScalingParams(distances=[3], flip_sweep=[0.02, 0.05, 0.1, 0.2]),
        trials=40_000,
        master_seed=4,
    )
    result = run(spec)
    fit = result.summary["exponents"]["3"]
    assert abs(fit["exponent"] - 2.0) < 0.2
    assert fit["theory"] == 2.0


def test_lifetime_summary_structure():
    spec = ExperimentSpec(
        "lifetime", LifetimeParams(distances=[1], rounds=10), trials=5000, master_seed=5
    )
    result = run(spec)
    fits = result.summary["fits"]
    assert set(fits) == {"physical", "1"}
    fit_keys = {"tau_ms", "p_inf", "low_confidence", "converged", "note", "tau_stderr",
                "p_inf_stderr"}
    assert set(fits["physical"]) == fit_keys
    assert set(fits["1"]) == fit_keys | {"extension_factor"}
    assert fits["1"]["extension_factor"] == pytest.approx(
        fits["1"]["tau_ms"] / fits["physical"]["tau_ms"]
    )
    d_values = {r["d"] for r in result.rows}
    assert d_values == {0, 1}


def test_lifetime_fit_diagnostics_are_kept():
    fits = []
    for threads in (1, 4):
        spec = ExperimentSpec(
            "lifetime", LifetimeParams(distances=[1, 3], rounds=8), trials=3000,
            master_seed=8, threads=threads,
        )
        fits.append(run(spec).summary["fits"])
    diagnostics = ("converged", "note", "tau_stderr", "p_inf_stderr")
    for fit in fits[0].values():
        assert all(key in fit for key in diagnostics)
    assert json.dumps(fits[0], sort_keys=True) == json.dumps(fits[1], sort_keys=True)
