"""Deterministic, splittable random streams.

Every stream is a counter-based Philox generator keyed by the master seed
and the length of a path of indices (experiment point, chunk, trial...),
whose counter starts at the path itself.  Streams are independent of
execution order and thread count: work is split into fixed-size chunks
whose streams depend only on their (point, chunk) path.  `map_chunks` runs
all of a run's chunks through one pool, each worker walking a fixed strided
share of them, and hands the results back in item order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from numbers import Integral
from typing import Callable, Iterable, TypeVar

import numpy as np

from .errors import ConfigurationError

SEED_LIMIT = 1 << 64  # master seeds and path indices lie in [0, SEED_LIMIT)
MAX_PATH = 3  # path indices fill Philox counter words 1-3

CHUNK_TRIALS = 4096

T = TypeVar("T")
R = TypeVar("R")


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (master_seed, *path), path <= MAX_PATH long.

    Philox is keyed by (master_seed, len(path)) and its counter starts at
    (0, *path), zero-padded, so distinct (master_seed, path) pairs start from
    distinct (key, counter) pairs.  Counter word 0 counts the stream's own
    blocks; a stream would need 2**64 blocks to reach its neighbour.  A
    float or bool key is rejected: it would alias the integer it casts to."""
    values = (master_seed, *path)
    if len(path) > MAX_PATH or not all(isinstance(v, Integral) and not isinstance(v, bool)
                                       and 0 <= v < SEED_LIMIT for v in values):
        raise ConfigurationError(
            f"stream {values}: at most {MAX_PATH} path indices, all integers in [0, 2**64)"
        )
    counter = np.zeros(4, dtype=np.uint64)
    counter[1 : 1 + len(path)] = path
    key = np.array([master_seed, len(path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def chunk_sizes(total: int, chunk: int = CHUNK_TRIALS) -> list[int]:
    """The sizes of the chunks covering `total` trials, `chunk` each and the
    last one shorter; a chunk's index is its position in the list."""
    return [min(chunk, total - start) for start in range(0, total, chunk)]


def map_chunks(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> list[R]:
    """[fn(item) for item in items], whatever the thread count.  With more
    than one worker (no more than items or CPU cores), one pool runs one task
    per worker: worker w calls fn on items[w::workers] in order, and each
    result goes back to its item's index."""
    items = list(items)
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    out: list = [None] * len(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        shares = pool.map(lambda w: [fn(item) for item in items[w::workers]], range(workers))
        for w, share in enumerate(shares):
            out[w::workers] = share
    return out
