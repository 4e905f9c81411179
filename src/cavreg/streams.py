"""Deterministic, splittable random streams.

Every stream is a counter-based Philox generator keyed by the master seed
and a path of indices (experiment point, chunk, trial...).  Streams are
independent of execution order and thread count: work is split into
fixed-size chunks whose streams depend only on the chunk index, and results
are gathered in chunk order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
SEED_LIMIT = 1 << 64  # master seeds lie in [0, SEED_LIMIT)
_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier

CHUNK_TRIALS = 4096

T = TypeVar("T")


def _fold(path: Sequence[int]) -> int:
    h = 0
    for p in path:
        h = ((h ^ (p & _MASK64)) * _MIX + 1) & _MASK64
    return h


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (master_seed, *path)."""
    key = np.array([master_seed & _MASK64, _fold(path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_sizes(total: int, chunk: int = CHUNK_TRIALS) -> list[tuple[int, int, int]]:
    """(chunk_index, start, size) triples covering `total` trials."""
    out = []
    start = 0
    index = 0
    while start < total:
        size = min(chunk, total - start)
        out.append((index, start, size))
        start += size
        index += 1
    return out


def map_chunks(
    fn: Callable[[tuple[int, int, int]], T],
    chunks: Iterable[tuple[int, int, int]],
    threads: int = 1,
) -> list[T]:
    """Apply fn over chunks, gathering results in chunk order regardless of
    completion order or thread count.  The pool has no more workers than
    chunks or CPU cores."""
    chunks = list(chunks)
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))
