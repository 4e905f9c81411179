"""Stream keys are distinct by construction.

stream(seed, *path) keys Philox with (seed, len(path)) and starts its
counter at (0, *path), so two different (seed, path) pairs never start from
the same (key, counter).  Paths are at most three indices, each in
[0, 2**64).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavreg.harness as harness
from cavreg import ConfigurationError, ExperimentSpec, run
from cavreg.config import load_config
from cavreg.harness import EXPERIMENTS
from cavreg.streams import CHUNK_TRIALS, MAX_PATH, chunk_sizes, stream


def _start(seed: int, *path: int) -> tuple:
    state = stream(seed, *path).bit_generator.state["state"]
    return tuple(state["key"].tolist()), tuple(state["counter"].tolist())


def test_former_fold_collision_is_gone():
    # the old path hash folded (5,) and (0, 4) to the same key
    assert _start(7, 5) != _start(7, 0, 4)
    assert not np.array_equal(stream(7, 5).random(8), stream(7, 0, 4).random(8))


def test_path_fills_the_counter_and_its_length_the_key():
    assert _start(7, 3, 12) == ((7, 2), (0, 3, 12, 0))
    assert _start(7) == ((7, 0), (0, 0, 0, 0))


# small indices make near collisions (shared prefixes, zeros, lengths) likely
index = st.integers(0, 3) | st.integers(0, 2**64 - 1)
seed_and_path = st.tuples(index, st.lists(index, max_size=MAX_PATH).map(tuple))


@settings(max_examples=200, deadline=None)
@given(seed_and_path, seed_and_path)
def test_distinct_paths_start_distinct_streams(a, b):
    (seed_a, path_a), (seed_b, path_b) = a, b
    assert (_start(seed_a, *path_a) == _start(seed_b, *path_b)) == (a == b)


@pytest.mark.parametrize(
    "seed, path",
    [(1, (0, 0, 0, 0)), (1, (-1,)), (1, (2**64,)), (-1, ()), (2**64, (3,))],
)
def test_stream_rejects_long_paths_and_out_of_range_indices(seed, path):
    with pytest.raises(ConfigurationError, match="2\\*\\*64"):
        stream(seed, *path)


class _Recorded(Exception):
    pass


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_default_runs_draw_from_distinct_streams(name, monkeypatch):
    # record the streams the sweep requests at the shipped trial count, with
    # the experiment's kernel replaced by a no-op
    config = load_config()
    exp = EXPERIMENTS[name]
    trials, seed = config[("run", exp.trials_key)], config[("run", "master_seed")]
    seen = []

    def recording_sweep(spec, points, kernel, chunk=CHUNK_TRIALS):
        assert spec.trials == trials
        sweep(spec, points, lambda point, rng, size: 0, chunk)
        seen.append((len(points), chunk))
        raise _Recorded

    sweep = harness._sweep
    monkeypatch.setattr(harness, "_sweep", recording_sweep)
    monkeypatch.setattr(harness, "stream", lambda *key: seen.append(_start(*key)))
    with pytest.raises(_Recorded):
        run(ExperimentSpec(name, exp.build(config), trials=trials, master_seed=seed))
    *starts, (n_points, chunk) = seen
    assert len(set(starts)) == len(starts) == n_points * len(chunk_sizes(trials, chunk))
