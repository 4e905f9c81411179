import json
import math

import numpy as np
import pytest

from cavreg import ConfigurationError, Estimate, ExperimentSpec, run
from cavreg.cli import _build_parser
from cavreg.config import SCHEMA, load_config
from cavreg.harness import (
    EXPERIMENTS,
    DepumpScalingParams,
    ErrorScalingParams,
    HistogramParams,
    LifetimeParams,
    SearchCostParams,
    write_metadata,
    write_result_csv,
)
from cavreg.streams import chunk_sizes, stream


def test_estimate_from_samples():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    est = Estimate.from_samples(samples)
    assert est.mean == pytest.approx(2.5)
    assert est.stderr == pytest.approx(samples.std(ddof=1) / 2.0)
    assert est.n == 4
    assert math.isnan(Estimate.from_samples(np.array([1.0])).stderr)


def test_estimate_from_binomial():
    est = Estimate.from_binomial(25, 100)
    assert est.mean == 0.25
    assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100))


def test_stream_determinism_and_independence():
    a = stream(7, 1, 2).random(4)
    b = stream(7, 1, 2).random(4)
    c = stream(7, 1, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(stream(8, 1, 2).random(4), a)


def test_chunk_sizes_cover_total():
    chunks = chunk_sizes(10_000, 4096)
    assert [c[2] for c in chunks] == [4096, 4096, 1808]
    assert chunks[-1][1] + chunks[-1][2] == 10_000


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
    assert ("run", exp.trials_key) in SCHEMA
    wrong = next(e.params for e in EXPERIMENTS.values() if e.params is not exp.params)
    with pytest.raises(ConfigurationError, match="expects"):
        run(ExperimentSpec(exp.name, wrong(), trials=5))


def test_search_cost_p_zero_is_exactly_one():
    spec = ExperimentSpec(
        "search_cost",
        SearchCostParams(sizes=[4], probabilities=[0.0]),
        trials=2000,
        master_seed=3,
    )
    rows = run(spec).rows
    row = next(r for r in rows if r["strategy"] == "global_then_sequential")
    assert row["mean_intervals"] == 1.0
    assert row["stderr"] == 0.0
    assert row["analytic"] == 1.0


@pytest.mark.parametrize(
    "experiment,params,trials",
    [
        ("histogram", HistogramParams(), 3000),
        ("search_cost", SearchCostParams(sizes=[3, 6], probabilities=[0.0, 0.3]), 400),
        ("error_scaling", ErrorScalingParams(flip_sweep=[0.05, 0.2], distances=[1, 3]), 3000),
        ("lifetime", LifetimeParams(distances=[1, 3], rounds=8), 3000),
        ("depump_scaling", DepumpScalingParams(sizes=[1, 3], rounds=2), 60),
    ],
)
def test_thread_count_never_changes_results(experiment, params, trials):
    outs = []
    for threads in (1, 4, 16):
        spec = ExperimentSpec(experiment, params, trials=trials, master_seed=99, threads=threads)
        outs.append(run(spec).rows)
    assert outs[0] == outs[1] == outs[2]


def test_repeat_run_is_bit_identical(tmp_path):
    spec = ExperimentSpec(
        "histogram", HistogramParams(), trials=2000, master_seed=11, threads=2
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


def test_stderr_scales_as_inverse_sqrt_trials():
    # 100x the trials should shrink the standard error ~10x (within 20%)
    def stderr_at(trials):
        spec = ExperimentSpec(
            "search_cost",
            SearchCostParams(sizes=[6], probabilities=[0.3]),
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
