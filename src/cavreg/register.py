"""Atomic register model: tweezer occupancy, hyperfine state, idling errors.

A site is either vacant (None) or holds one atom in the F=1 (dark) or
F=2 (bright) ground-state manifold; the readout kernels carry it as an
int8 state code (0 vacant, 1 F=1, 2 F=2) with a leading trial axis.
During idling, atoms depump toward an equal hyperfine mixture with timescale
``tau_depump_ms`` and are ejected by background-gas collisions with timescale
``tau_vacuum_ms``.  Within a trial lost atoms are never reloaded, so the
occupied set only shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigurationError


class HyperfineState(Enum):
    F1 = 1  # dark
    F2 = 2  # bright


F1 = HyperfineState.F1
F2 = HyperfineState.F2

# A site is vacant (None) or occupied by an atom in a hyperfine state.
SiteState = HyperfineState | None
VACANT: SiteState = None

# State codes of the array representation, and the site state of each code.
VACANT_CODE, F1_CODE, F2_CODE = 0, F1.value, F2.value
CODE_STATES: tuple[SiteState, ...] = (None, F1, F2)


def state_codes(sites: list[SiteState]) -> np.ndarray:
    """int8 state codes of a list of site states."""
    return np.array([0 if s is None else s.value for s in sites], dtype=np.int8)


def as_codes(state: SiteState | np.ndarray) -> np.ndarray:
    """A code array as it is, or one site state as a one-trial code array."""
    return state if isinstance(state, np.ndarray) else state_codes([state])


@dataclass
class Register:
    """Ordered tweezer array; the site index identifies a physical tweezer."""

    sites: list[SiteState]
    spacing_um: float = 17.0

    def __post_init__(self):
        if len(self.sites) < 1:
            raise ConfigurationError("register needs at least one site")
        if self.spacing_um <= 0:
            raise ConfigurationError("tweezer spacing must be positive")

    @property
    def n(self) -> int:
        return len(self.sites)

    def occupied_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.sites) if s is not None]

    def bright_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.sites) if s is F2]


@dataclass(frozen=True)
class IdleErrorModel:
    tau_depump_ms: float = 150.0
    tau_vacuum_ms: float = 800.0

    def __post_init__(self):
        if self.tau_depump_ms <= 0 or self.tau_vacuum_ms <= 0:
            raise ConfigurationError("idle time constants must be positive")


def prepare(register: Register, pattern: list[SiteState]) -> Register:
    """Set every site to the given pattern (deterministic state preparation)."""
    if len(pattern) != register.n:
        raise ConfigurationError(
            f"pattern length {len(pattern)} != register size {register.n}"
        )
    return replace(register, sites=list(pattern))


def flip_probability(duration_ms: float, model: IdleErrorModel) -> float:
    """Hyperfine flip probability after idling: relaxation toward an equal
    mixture, saturating at 1/2."""
    return 0.5 * (1.0 - math.exp(-duration_ms / model.tau_depump_ms))


def loss_probability(duration_ms: float, model: IdleErrorModel) -> float:
    """Probability the atom is ejected by a background-gas collision."""
    return 1.0 - math.exp(-duration_ms / model.tau_vacuum_ms)


def idle(
    register: Register,
    duration_ms: float,
    model: IdleErrorModel,
    rng: np.random.Generator,
) -> Register:
    """Idle the register: each occupied site independently flips hyperfine
    state and/or is lost.  Flip and loss are sampled independently; loss is
    applied after the flip (a lost atom's flip is irrelevant)."""
    if duration_ms < 0:
        raise ConfigurationError("idle duration must be non-negative")
    p_flip = flip_probability(duration_ms, model)
    p_loss = loss_probability(duration_ms, model)
    new_sites: list[SiteState] = []
    for s in register.sites:
        if s is None:
            new_sites.append(None)
            continue
        if rng.random() < p_flip:
            s = F1 if s is F2 else F2
        if rng.random() < p_loss:
            s = None
        new_sites.append(s)
    return replace(register, sites=new_sites)


def combined_idle_lifetime(model: IdleErrorModel) -> float:
    """Idling 1/e lifetime in ms with depump and vacuum rates adding:
    1/(1/tau_depump + 1/tau_vacuum)."""
    return 1.0 / (1.0 / model.tau_depump_ms + 1.0 / model.tau_vacuum_ms)


def uniform_register(n: int, state: SiteState, spacing_um: float = 17.0) -> Register:
    return Register(sites=[state] * n, spacing_um=spacing_um)
