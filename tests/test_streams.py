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
from cavreg import ConfigurationError, run
from cavreg.config import load_config
from cavreg.harness import EXPERIMENTS, HISTOGRAM_CHUNK
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
    assert _start(np.uint64(7), np.int64(3), np.uint8(12)) == _start(7, 3, 12)
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
    [(1, (0, 0, 0, 0)), (1, (-1,)), (1, (2**64,)), (-1, ()), (2**64, (3,)),
     # a float or a bool would draw what the integer it casts to draws
     (1.5, (2,)), (1, (2.7,)), (1, (2.0,)), (True, (2,)), (1, (np.True_,)),
     (np.float64(1.0), ())],
)
def test_stream_rejects_long_paths_and_out_of_range_indices(seed, path):
    with pytest.raises(ConfigurationError, match="2\\*\\*64"):
        stream(seed, *path)


def _shipped_paths(name: str, params, trials: int) -> list[tuple[int, int]]:
    """The (point, chunk) path of every stream a run opens: chunk 0 of each
    count-law point and every chunk of each per-trial point."""
    def chunked(points, chunk=CHUNK_TRIALS):
        return [(i, c) for i in points for c in range(len(chunk_sizes(trials, chunk)))]

    if name == "histogram":  # bright_full, bright_adaptive, dark_full
        return [(0, 0), *chunked([1], HISTOGRAM_CHUNK), (2, 0)]
    if name == "error_scaling":
        return [(i, 0) for i in range(len(params.distances) * len(params.flip_sweep))]
    if name == "lifetime":  # the idling bit, then each distance
        return [(0, 0), *chunked(range(1, len(params.distances) + 1))]
    if name == "depump_scaling":
        return chunked(range(len(params.sizes)))
    return chunked(range(len(params.sizes) * len(params.bright_probabilities)))  # search-cost


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_default_runs_draw_from_distinct_streams(name, monkeypatch):
    # record every stream a shipped run opens, count-law draws included
    spec = load_config().specs[name]
    seen = []

    def recording_stream(seed, *path):
        seen.append((seed, path))
        return stream(seed, *path)

    monkeypatch.setattr(harness, "stream", recording_stream)
    run(spec)
    starts = [_start(seed, *path) for seed, path in seen]
    assert len(set(starts)) == len(starts)
    paths = _shipped_paths(name, spec.parameters, spec.trials)
    assert sorted(seen) == sorted((spec.master_seed, path) for path in paths)
