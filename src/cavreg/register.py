"""Atomic register model: tweezer occupancy, hyperfine state, idling errors.

A register is an int8 array of state codes, one per tweezer site: VACANT
(0), F1 (1, dark) or F2 (2, bright).  Readout kernels carry a leading trial
axis, a (trials, sites) array.  During idling, atoms depump toward an equal
hyperfine mixture with timescale ``tau_depump_ms`` and are ejected by
background-gas collisions with timescale ``tau_vacuum_ms``.  Within a trial
lost atoms are never reloaded, so the occupied set only shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_finite

# State codes; F1 + F2 - code swaps the hyperfine state of an occupied site.
VACANT, F1, F2 = 0, 1, 2


@dataclass(frozen=True)
class IdleErrorModel:
    tau_depump_ms: float = 150.0
    tau_vacuum_ms: float = 800.0

    def __post_init__(self):
        check_finite("register.tau_depump_ms", self.tau_depump_ms)
        check_finite("register.tau_vacuum_ms", self.tau_vacuum_ms)


def flip_probability(duration_ms: float, model: IdleErrorModel) -> float:
    """Hyperfine flip probability after idling: relaxation toward an equal
    mixture, saturating at 1/2."""
    return 0.5 * (1.0 - math.exp(-duration_ms / model.tau_depump_ms))


def loss_probability(duration_ms: float, model: IdleErrorModel) -> float:
    """Probability the atom is ejected by a background-gas collision."""
    return 1.0 - math.exp(-duration_ms / model.tau_vacuum_ms)


def idle(
    states: np.ndarray,
    duration_ms: float,
    model: IdleErrorModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Idle an array of state codes of any shape: each occupied site
    independently flips hyperfine state and/or is lost.  Flip and loss are
    sampled independently; loss is applied after the flip (a lost atom's
    flip is irrelevant)."""
    if duration_ms < 0:
        raise ConfigurationError("idle duration must be non-negative")
    flip = (rng.random(states.shape) < flip_probability(duration_ms, model)) & (states != VACANT)
    lost = rng.random(states.shape) < loss_probability(duration_ms, model)
    return np.where(lost, VACANT, np.where(flip, F1 + F2 - states, states))


def combined_idle_lifetime(model: IdleErrorModel) -> float:
    """Idling 1/e lifetime in ms with depump and vacuum rates adding:
    1/(1/tau_depump + 1/tau_vacuum)."""
    return 1.0 / (1.0 / model.tau_depump_ms + 1.0 / model.tau_vacuum_ms)


def uniform_register(n: int, state: int) -> np.ndarray:
    """A register of n sites, all holding one state code."""
    if n < 1:
        raise ConfigurationError("register needs at least one site")
    return np.full(n, state, dtype=np.int8)
