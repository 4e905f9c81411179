"""Search strategies for locating bright atoms in a biased register.

A group check is a single fluorescence interval interrogating a subset of
sites at once: it reveals whether any bright atom is present in the subset.
When the register is strongly biased toward dark, checking everything at
once and only then searching makes the expected readout cost 1 + p*N; a
bisection search over positive subsets cuts it further to 1 + p*log2(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .register import F1, F2, uniform_register


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
        if self.n < 1:
            raise ConfigurationError("register size must be >= 1")
        if not (0.0 <= self.p <= 1.0):
            raise ConfigurationError("bright probability must be in [0, 1]")


@dataclass(frozen=True)
class GroupCheckNoise:
    false_positive: float = 0.0
    false_negative: float = 0.0


@dataclass
class SearchResult:
    bright_sites: set[int]
    intervals_used: int
    transcript: list[tuple[tuple[int, ...], bool]]


def sample_register(problem: SearchProblem, rng: np.random.Generator) -> np.ndarray:
    """Draw a register realization as state codes: all dark, with bright
    atoms placed according to the problem's placement model."""
    register = uniform_register(problem.n, F1)
    if problem.placement is Placement.AT_MOST_ONE_BRIGHT:
        if rng.random() < problem.p:
            register[rng.integers(problem.n)] = F2
    else:
        register[rng.random(problem.n) < problem.p] = F2
    return register


def group_check(
    register: np.ndarray,
    subset: tuple[int, ...] | list[int] | set[int],
    rng: np.random.Generator | None = None,
    noise: GroupCheckNoise | None = None,
) -> bool:
    """One fluorescence interval over a subset: true iff any bright atom."""
    subset = tuple(subset)
    if not subset:
        raise ConfigurationError("group check subset must be non-empty")
    if any(i < 0 or i >= len(register) for i in subset):
        raise ConfigurationError("subset index out of range")
    truth = any(register[i] == F2 for i in subset)
    if noise is None:
        return truth
    if rng is None:
        raise ConfigurationError("noisy group checks need a random stream")
    if truth:
        return not (rng.random() < noise.false_negative)
    return rng.random() < noise.false_positive


def run_search(
    register: np.ndarray,
    strategy: Strategy,
    rng: np.random.Generator | None = None,
    *,
    at_most_one: bool = True,
    noise: GroupCheckNoise | None = None,
) -> SearchResult:
    """Locate the bright atoms.

    sequential: one singleton check per site, N intervals always.
    global_then_sequential: one full-register check; all N singles iff positive.
    partitioned: bisection of every positive subset.  Each split checks one
    half and infers the other by elimination; under the at-most-one
    assumption a positive half also eliminates its sibling, so a single
    bright atom costs exactly 1 + ceil(log2 N) intervals at most.  With
    at_most_one=False both halves are resolved, which stays correct for any
    number of bright atoms.
    """
    transcript: list[tuple[tuple[int, ...], bool]] = []
    found: set[int] = set()

    def check(subset: tuple[int, ...]) -> bool:
        outcome = group_check(register, subset, rng, noise)
        transcript.append((subset, outcome))
        return outcome

    all_sites = tuple(range(len(register)))

    if strategy is Strategy.DETERMINISTIC_SEQUENTIAL:
        for i in all_sites:
            if check((i,)):
                found.add(i)
    elif strategy is Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL:
        if check(all_sites):
            for i in all_sites:
                if check((i,)):
                    found.add(i)
    elif strategy is Strategy.PARTITIONED_BINARY:

        def locate(subset: tuple[int, ...]) -> None:
            # subset is known (or inferred) to contain at least one bright atom
            if len(subset) == 1:
                found.add(subset[0])
                return
            half = (len(subset) + 1) // 2
            left, right = subset[:half], subset[half:]
            if check(left):
                locate(left)
                if not at_most_one and check(right):
                    locate(right)
            else:
                locate(right)

        if check(all_sites):
            locate(all_sites)
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")

    return SearchResult(found, len(transcript), transcript)


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
    """Closed-form expected number of readout intervals.

    sequential: N.  global_then_sequential: 1 + p*N.  partitioned (under the
    at-most-one placement): 1 + p*E[splits], where E[splits] is the exact
    split recursion (= log2 N for power-of-two N).
    """
    if strategy is Strategy.DETERMINISTIC_SEQUENTIAL:
        return float(problem.n)
    if strategy is Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL:
        return 1.0 + problem.p * problem.n
    if strategy is Strategy.PARTITIONED_BINARY:
        if problem.placement is not Placement.AT_MOST_ONE_BRIGHT:
            raise ConfigurationError(
                "closed-form partitioned cost is defined for the at-most-one placement"
            )
        return 1.0 + problem.p * _expected_splits(problem.n)
    raise ConfigurationError(f"unknown strategy {strategy!r}")


def enumerate_mean_intervals(problem: SearchProblem, strategy: Strategy) -> float:
    """Exact mean interval count by enumeration of the empty placement and
    all single-bright placements (at-most-one model), running the actual
    noiseless search on each."""
    if problem.placement is not Placement.AT_MOST_ONE_BRIGHT:
        raise ConfigurationError("enumeration covers the at-most-one placement")
    empty = uniform_register(problem.n, F1)
    total = (1.0 - problem.p) * run_search(empty, strategy).intervals_used
    for i in range(problem.n):
        register = empty.copy()
        register[i] = F2
        cost = run_search(register, strategy).intervals_used
        total += (problem.p / problem.n) * cost
    return total


def transcript_supports(result: SearchResult, n: int) -> bool:
    """Check that every reported bright site is backed by the transcript:
    either a positive singleton check, or forced by elimination (a positive
    parent whose checked half was negative, narrowed down to the site)."""
    positives = {s for s, out in result.transcript if out}
    negatives = {s for s, out in result.transcript if not out}
    for site in result.bright_sites:
        if (site,) in positives:
            continue
        # elimination: some positive superset minus checked-negative parts
        # reduces to exactly this site
        supported = False
        for pos in positives:
            if site not in pos:
                continue
            remaining = set(pos)
            for neg in negatives:
                if set(neg) <= remaining:
                    remaining -= set(neg)
            if remaining == {site}:
                supported = True
                break
        if not supported:
            return False
    return True
