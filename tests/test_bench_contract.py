"""The benchmark's tracer patches cavreg functions by name.

A traced benchmark run fails when a name it patches is gone or a layer it
expects records no calls.  These tests catch that here, in the test suite:
every (module, attr) in bench/tracer.py's PATCHES must exist, and tiny
depump-scaling, search-cost and error-scaling/lifetime/histogram runs must
reach every layer the readout-seq, search-scan and code-sweep workloads
expect, with the expected call counts.
"""

import importlib
import sys
from pathlib import Path

import pytest

from cavreg.harness import (
    DepumpScalingParams,
    ErrorScalingParams,
    ExperimentSpec,
    LifetimeParams,
    SearchCostParams,
    run,
)
from cavreg.photons import PhotonModel
from cavreg.search import GroupCheckNoise, Placement
from cavreg.streams import chunk_sizes

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    bench_run = importlib.import_module("run")
    yield tracer, bench_run
    for name in ("tracer", "run", "hostspeed"):
        sys.modules.pop(name, None)


def test_every_patched_name_exists(bench):
    tracer, _ = bench
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.PATCHES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


def _traced_calls(bench, monkeypatch, workload, *specs):
    """Calls per layer of a traced run of the specs; every layer the
    workload expects must have been called."""
    tracer, bench_run = bench
    for module, attr, *_ in tracer.PATCHES:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undone after the test
    traced = tracer.Tracer()
    tracer.install(traced)
    for spec in specs:
        run(spec)
    calls = {name: s["calls"] for name, s in traced.report()["stats"].items()}
    expected = bench_run.WORKLOADS[workload].expect_calls
    missing = [name for name in expected if not calls.get(name, 0) > 0]
    assert not missing, (
        f"{workload} expect_calls layers never called: {', '.join(missing)}; a kernel "
        "change that stops one updates bench/run.py's expect_calls (ROADMAP item 1)"
    )
    return calls


def test_depump_scaling_reaches_the_readout_seq_layers(bench, monkeypatch):
    params = DepumpScalingParams()
    spec = ExperimentSpec("depump_scaling", params, trials=20, master_seed=3)
    calls = _traced_calls(bench, monkeypatch, "readout-seq", spec)
    # one chunk per array size: one stream, one register and one readout
    # per size, one batched measurement per round, both intervals in one call
    rounds = len(params.sizes) * params.readout_rounds
    assert calls["streams.stream"] == len(params.sizes)
    assert calls["register.uniform_register"] == len(params.sizes)
    assert calls["readout.sequential_array_readout"] == len(params.sizes)
    assert calls["readout.measure_site"] == rounds
    assert calls["photons.sample_adaptive_interval"] == rounds


def test_search_cost_reaches_the_search_scan_layers(bench, monkeypatch):
    params = SearchCostParams()
    spec = ExperimentSpec("search_cost", params, trials=20, master_seed=3)
    calls = _traced_calls(bench, monkeypatch, "search-scan", spec)
    # one chunk per (size, p) point: one register draw over all of its trials
    # that each strategy searches once, over its distinct bright patterns,
    # with group checks per level, at most 2n of them
    per_size = len(params.bright_probabilities) * len(params.strategies)
    points = len(params.sizes) * len(params.bright_probabilities)
    assert calls["search.sample_register"] == points
    assert calls["search.run_search"] == points * len(params.strategies)
    assert calls["search.group_check"] <= sum(2 * n * per_size for n in params.sizes)


@pytest.mark.parametrize(
    "params",
    [SearchCostParams(noise=GroupCheckNoise(false_positive=0.1)),
     SearchCostParams(placement=Placement.INDEPENDENT_PER_SITE)],
    ids=["noisy", "independent"],
)
def test_per_trial_search_specs_search_once_per_point(params, bench, monkeypatch):
    # noisy checks or the independent placement: each (size, p) chunk draws
    # its registers once, and each strategy searches them in one call
    spec = ExperimentSpec("search_cost", params, trials=20, master_seed=3)
    calls = _traced_calls(bench, monkeypatch, "search-scan", spec)
    points = len(params.sizes) * len(params.bright_probabilities)
    assert calls["search.sample_register"] == points
    assert calls["search.run_search"] == points * len(params.strategies)


def test_code_sweep_runs_reach_the_code_sweep_layers(bench, monkeypatch):
    scaling, lifetime = ErrorScalingParams(), LifetimeParams()
    trials = 5000  # two chunks per lifetime point; enough errors for the d = 3 fit
    specs = [
        ExperimentSpec("error_scaling", scaling, trials=trials, master_seed=3, threads=2),
        ExperimentSpec("lifetime", lifetime, trials=trials, master_seed=3, threads=2),
        ExperimentSpec("histogram", PhotonModel(), trials=20, master_seed=3),
    ]
    calls = _traced_calls(bench, monkeypatch, "code-sweep", *specs)
    # one per-trial code trace per lifetime distance and chunk; the idling bit
    # and each error-scaling point are one count-law draw of all trials, which
    # opens one stream, and so are the histogram's two full-interval conditions
    chunks = len(chunk_sizes(trials))
    scaling_points = len(scaling.distances) * len(scaling.flip_sweep)
    assert calls["repcode.simulate_code_abstract"] == len(lifetime.distances) * chunks
    assert calls["repcode.simulate_idling_bit"] == 1
    assert calls["photons.sample_adaptive_bright_batch"] == 1
    assert calls["streams.stream"] == 1 + len(lifetime.distances) * chunks + scaling_points + 3
