"""Search strategies for locating bright atoms in a biased register.

A group check is a single fluorescence interval interrogating a subset of
sites at once: it reveals whether any bright atom is present in the subset.
When at most one site is bright (with probability p), checking everything
at once and only then searching makes the expected readout cost 1 + p*N; a
bisection search over positive subsets cuts it further to 1 + p*log2(N).

Registers are (..., n) state-code arrays with a leading trial axis.  A
search turns them once into a bright-site bitmask per register, so a group
check over a subset is `bits & subset != 0` for every register at once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, check_integers, check_probability
from .register import F1, F2


class Placement(Enum):
    AT_MOST_ONE_BRIGHT = "at_most_one"
    INDEPENDENT_PER_SITE = "independent"


class Strategy(Enum):
    DETERMINISTIC_SEQUENTIAL = "sequential"
    GLOBAL_CHECK_THEN_SEQUENTIAL = "global_then_sequential"
    PARTITIONED_BINARY = "partitioned"


@dataclass(frozen=True)
class SearchProblem:
    n: int
    p: float
    placement: Placement = Placement.AT_MOST_ONE_BRIGHT

    def __post_init__(self):
        check_integers("search.sizes", self.n)
        if not 1 <= self.n <= 64:
            raise ConfigurationError(f"{self.n} is outside [1, 64] (one uint64 bitmask)",
                                     "search.sizes")
        check_probability("search.bright_probabilities", self.p)
        if not isinstance(self.placement, Placement):  # a look-alike would run as independent
            raise ConfigurationError(f"{self.placement!r} is not a Placement", "search.placement")


@dataclass(frozen=True)
class GroupCheckNoise:
    false_positive: float = 0.0
    false_negative: float = 0.0

    def __post_init__(self):
        check_probability("search.false_positive", self.false_positive)
        check_probability("search.false_negative", self.false_negative)


@dataclass
class SearchResult:
    found: np.ndarray  # (..., n) bool: the sites reported bright
    intervals_used: np.ndarray  # (...) int: group checks spent per register


@lru_cache(maxsize=None)
def placements(n: int) -> np.ndarray:
    """The n + 1 at-most-one placements of an n-site register as a read-only
    (n + 1, n) state-code array: row i is bright at site i; row n is all dark."""
    table = F1 + np.eye(n + 1, n, dtype=np.int8)
    table.flags.writeable = False  # shared by every caller
    return table


@lru_cache(maxsize=256)
def _placement_edges(n: int, p: float) -> np.ndarray:
    """Uniform thresholds k*p/n, k = 1..n, splitting [0, p) into n parts, as
    a read-only array that searchsorted reads without converting."""
    edges = p / n * np.arange(1, n + 1)
    edges.flags.writeable = False  # shared by every caller
    return edges


def sample_register(
    problem: SearchProblem, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw `size` registers as a (size, n) state-code array, or one (n,)
    register when size is None, bright atoms placed by the placement model.

    The independent placement draws one uniform per site in row-major order.
    The at-most-one placement draws one uniform u per register: bright iff
    u < p, at the site whose n-th part of [0, p) holds u."""
    n, p = problem.n, problem.p
    if problem.placement is Placement.AT_MOST_ONE_BRIGHT:
        edges = _placement_edges(n, p)
        if size is None:  # bisect skips numpy's per-call cost on one uniform
            return placements(n)[bisect_right(edges, rng.random())].copy()
        # take copies rows a few times faster than fancy indexing does
        return placements(n).take(edges.searchsorted(rng.random(size), side="right"), axis=0)
    shape = (n,) if size is None else (size, n)
    codes = np.full(shape, F1, dtype=np.int8)
    codes[rng.random(shape) < p] = F2
    return codes


@lru_cache(maxsize=None)
def _site_bits(n: int) -> np.ndarray:
    """The one-site bitmasks 1 << i of an n-site register."""
    if n > 64:
        raise ConfigurationError("a search register holds at most 64 sites (one uint64)")
    return np.uint64(1) << np.arange(n, dtype=np.uint64)


def bright_bits(codes: np.ndarray) -> np.ndarray:
    """The bright-site bitmask of each register of a (..., n) state-code
    array: bit i is set iff site i holds a bright (F=2) atom."""
    return (codes == F2).dot(_site_bits(codes.shape[-1]))


def site_mask(sites: Iterable[int], n: int) -> int:
    """The bitmask of a non-empty subset of the sites of an n-site register."""
    sites = set(sites)
    if not sites or not sites <= set(range(n)):
        raise ConfigurationError(f"subset {sorted(sites)} is empty or outside 0..{n - 1}")
    return sum(1 << i for i in sites)


def group_check(
    bits: np.ndarray,
    subset: int | np.ndarray,
    rng: np.random.Generator | None = None,
    noise: GroupCheckNoise | None = None,
) -> np.ndarray:
    """One fluorescence interval over the sites of the bitmask `subset` for
    every register of `bits` (see bright_bits): true iff any bright atom.
    An array of subsets broadcasts against `bits`.  Noisy checks draw one
    uniform per outcome."""
    truth = (bits & subset) != 0
    if noise is None:
        return truth
    if rng is None:
        raise ConfigurationError("noisy group checks need a random stream")
    u = rng.random(np.shape(truth))
    return np.where(truth, u >= noise.false_negative, u < noise.false_positive)


@lru_cache(maxsize=None)
def _bisection_tree(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Pre-order (mask, leaf site or -1, left, right) nodes of the bisection
    of range(n); a node of m sites gives its left child the first ceil(m/2)."""
    nodes: list = []

    def add(lo: int, hi: int) -> int:
        nodes.append(None)
        index, mid = len(nodes) - 1, lo + (hi - lo + 1) // 2
        children = (add(lo, mid), add(mid, hi)) if hi - lo > 1 else (-1, -1)
        nodes[index] = (site_mask(range(lo, hi), n), lo if hi - lo == 1 else -1, *children)
        return index

    add(0, n)
    return tuple(nodes)


def run_search(
    codes: np.ndarray,
    strategy: Strategy,
    rng: np.random.Generator | None = None,
    *,
    at_most_one: bool = True,
    noise: GroupCheckNoise | None = None,
) -> SearchResult:
    """Locate the bright atoms of every register of a (..., n) state-code
    array.

    sequential: one singleton check per site, N intervals always.
    global_then_sequential: one full-register check; all N singles iff positive.
    partitioned: bisection of every positive subset.  Each split checks one
    half and infers the other by elimination; under the at-most-one
    assumption a positive half also eliminates its sibling, so a single
    bright atom costs exactly 1 + ceil(log2 N) intervals at most.  With
    at_most_one=False both halves are resolved, which stays correct for any
    number of bright atoms.

    Each group_check call covers every register: the singles are one call,
    and bisection walks its tree in pre-order, so a search makes at most 2N.
    A noiseless search draws nothing, so the result of one (n,) register is
    cached and returned as a copy.
    """
    codes = np.asarray(codes)
    if codes.ndim == 1 and noise is None:
        found, intervals = _search_one(codes.tobytes(), codes.dtype, codes.size, strategy,
                                       at_most_one)
        return SearchResult(found.copy(), intervals.copy())
    return _search(codes, strategy, rng, at_most_one, noise)


@lru_cache(maxsize=4096)
def _search_one(key: bytes, dtype: np.dtype, n: int, strategy: Strategy, at_most_one: bool):
    """(found, intervals_used) of the noiseless search of one register."""
    result = _search(np.frombuffer(key, dtype), strategy, None, at_most_one, None)
    return result.found, result.intervals_used


def _search(codes, strategy, rng, at_most_one, noise) -> SearchResult:
    n = codes.shape[-1]
    bits = bright_bits(codes)
    found = np.zeros(codes.shape, dtype=bool)
    if strategy is Strategy.PARTITIONED_BINARY:
        tree = _bisection_tree(n)
        intervals = np.ones(bits.shape, dtype=np.int64)
        # per node, the registers whose search reaches it knowing it positive;
        # pre-order fills each entry before the walk gets to it
        known = [group_check(bits, tree[0][0], rng, noise)] + [None] * (len(tree) - 1)
        for reached, (_, site, left, right) in zip(known, tree):
            if site >= 0:
                found[..., site] = reached
                continue
            left_positive = group_check(bits, tree[left][0], rng, noise)
            intervals += reached
            known[left] = reached & left_positive
            if at_most_one:
                known[right] = reached & ~left_positive
            else:
                right_positive = group_check(bits, tree[right][0], rng, noise)
                intervals += known[left]
                known[right] = reached & (~left_positive | right_positive)
        return SearchResult(found, intervals)
    if strategy is Strategy.DETERMINISTIC_SEQUENTIAL:
        searched = np.ones(bits.shape, dtype=bool)
        intervals = np.full(bits.shape, n)
    elif strategy is Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL:
        searched = group_check(bits, (1 << n) - 1, rng, noise)
        intervals = 1 + n * searched
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    if np.count_nonzero(searched):  # no singles where no register is searched
        found = searched[..., None] & group_check(bits[..., None], _site_bits(n), rng, noise)
    return SearchResult(found, intervals)


@lru_cache(maxsize=None)
def _expected_splits(m: int) -> float:
    """Expected splits to isolate one bright atom uniform over m sites, with
    half-elimination and near-equal splits.  Equals log2(m) at powers of two
    and is bounded by ceil(log2 m)."""
    if m == 1:
        return 0.0
    left = (m + 1) // 2
    right = m - left
    return 1.0 + (left * _expected_splits(left) + right * _expected_splits(right)) / m


def expected_cost(problem: SearchProblem, strategy: Strategy) -> float:
    """Closed-form expected number of readout intervals of a noiseless search.

    sequential: N.  global_then_sequential: 1 + N * P(any site bright), which
    is 1 + p*N under the at-most-one placement and 1 + N*(1 - (1 - p)^N) under
    the independent one.  partitioned (under the at-most-one placement):
    1 + p*E[splits], where E[splits] is the exact split recursion (= log2 N
    for power-of-two N).
    """
    n, p = problem.n, problem.p
    if strategy is Strategy.DETERMINISTIC_SEQUENTIAL:
        return float(n)
    if strategy is Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL:
        if problem.placement is Placement.AT_MOST_ONE_BRIGHT:
            return 1.0 + p * n
        return 1.0 + n * (1.0 - (1.0 - p) ** n)
    if strategy is Strategy.PARTITIONED_BINARY:
        if problem.placement is not Placement.AT_MOST_ONE_BRIGHT:
            raise ConfigurationError(
                "closed-form partitioned cost is defined for the at-most-one placement"
            )
        return 1.0 + p * _expected_splits(n)
    raise ConfigurationError(f"unknown strategy {strategy!r}")


def enumerate_mean_intervals(problem: SearchProblem, strategy: Strategy) -> float:
    """Exact mean interval count by enumeration of the empty placement and
    all single-bright placements (at-most-one model), running the actual
    noiseless search on all of them in one call."""
    if problem.placement is not Placement.AT_MOST_ONE_BRIGHT:
        raise ConfigurationError("enumeration covers the at-most-one placement")
    costs = run_search(placements(problem.n), strategy).intervals_used
    weights = np.r_[np.full(problem.n, problem.p / problem.n), 1.0 - problem.p]
    return float(weights @ costs)
