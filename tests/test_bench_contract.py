"""The benchmark's tracer patches cavreg functions by name.

A traced benchmark run fails when a name it patches is gone or a layer it
expects records no calls.  These tests catch that here, in the test suite:
every (module, attr) in bench/tracer.py's PATCHES must exist, and a tiny
depump-scaling run must reach every layer the readout-seq workload expects,
with the per-chunk call counts of the array readout.
"""

import importlib
import sys
from pathlib import Path

import pytest

from cavreg.harness import DepumpScalingParams, ExperimentSpec, run

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


def test_depump_scaling_reaches_the_readout_seq_layers(bench, monkeypatch):
    tracer, bench_run = bench
    for module, attr, *_ in tracer.PATCHES:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undone after the test
    traced = tracer.Tracer()
    tracer.install(traced)
    params = DepumpScalingParams()
    run(ExperimentSpec("depump_scaling", params, trials=20, master_seed=3))
    stats = traced.report()["stats"]

    expected = bench_run.WORKLOADS["readout-seq"].expect_calls
    assert all(stats.get(name, {}).get("calls", 0) > 0 for name in expected)
    # one chunk per array size: one stream, one register and one readout
    # per size, one measurement per (round, site), two intervals each
    steps = sum(params.sizes) * params.rounds
    calls = {name: s["calls"] for name, s in stats.items()}
    assert calls["streams.stream"] == len(params.sizes)
    assert calls["register.uniform_register"] == len(params.sizes)
    assert calls["readout.sequential_array_readout"] == len(params.sizes)
    assert calls["readout.measure_site"] == steps
    assert calls["photons.sample_adaptive_interval"] == 2 * steps
