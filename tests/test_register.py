import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavreg import (
    F1,
    F2,
    ConfigurationError,
    VACANT,
    IdleErrorModel,
    combined_idle_lifetime,
    idle,
    uniform_register,
)
from cavreg.register import flip_probability, loss_probability


def test_register_invariants():
    with pytest.raises(ConfigurationError):
        uniform_register(0, F2)


def test_idle_zero_duration_is_identity(rng):
    reg = np.array([F1, F2, VACANT, F2, F1, F2], np.int8)
    out = idle(reg, 0.0, IdleErrorModel(), rng)
    assert np.array_equal(out, reg)


def test_idle_negative_duration_rejected(rng):
    with pytest.raises(ConfigurationError):
        idle(uniform_register(2, F2), -1.0, IdleErrorModel(), rng)


def test_flip_probability_saturates_at_half():
    model = IdleErrorModel(tau_depump_ms=150.0, tau_vacuum_ms=1e18)
    assert flip_probability(1e12, model) == pytest.approx(0.5, abs=1e-12)


def test_flip_and_loss_monotone_in_duration():
    model = IdleErrorModel()
    times = [0.0, 1.0, 10.0, 100.0, 1000.0, 1e5]
    flips = [flip_probability(t, model) for t in times]
    losses = [loss_probability(t, model) for t in times]
    assert flips == sorted(flips) and flips[-1] <= 0.5
    assert losses == sorted(losses) and losses[-1] <= 1.0
    assert loss_probability(1e7, model) == pytest.approx(1.0)


def test_idle_loss_closed_form_and_frequency(rng):
    # 20 ms against the 800 ms vacuum lifetime
    model = IdleErrorModel(tau_depump_ms=150.0, tau_vacuum_ms=800.0)
    p_loss = loss_probability(20.0, model)
    assert p_loss == pytest.approx(0.024690087971667385, rel=1e-12)

    n = 1_000_000
    lost = int((rng.random(n) < p_loss).sum())  # closed form drives sampling
    # independent frequency check through the idle() code path on a big register
    reg = uniform_register(2000, F2)
    survivors = sum(
        np.count_nonzero(idle(reg, 20.0, model, rng) != VACANT) for _ in range(50)
    )
    total = 2000 * 50
    observed = 1.0 - survivors / total
    se = math.sqrt(p_loss * (1 - p_loss) / total)
    assert abs(observed - p_loss) < 4 * se
    se_direct = math.sqrt(p_loss * (1 - p_loss) / n)
    assert abs(lost / n - p_loss) < 4 * se_direct


def test_idle_flip_frequency(rng):
    model = IdleErrorModel()
    duration = 30.0
    p_flip = flip_probability(duration, model)
    reg = uniform_register(2000, F2)
    flipped = 0
    present = 0
    for _ in range(60):
        out = idle(reg, duration, model, rng)
        present += np.count_nonzero(out != VACANT)
        flipped += np.count_nonzero(out == F1)
    se = math.sqrt(p_flip * (1 - p_flip) / present)
    assert abs(flipped / present - p_flip) < 4 * se


def test_combined_idle_lifetime_values():
    assert combined_idle_lifetime(IdleErrorModel(150.0, 800.0)) == pytest.approx(
        126.31578947368422
    )
    # within 2% of the quoted 125 ms
    assert abs(combined_idle_lifetime(IdleErrorModel(150.0, 800.0)) - 125.0) / 125.0 < 0.02
    assert combined_idle_lifetime(IdleErrorModel(140.0, 1e15)) == pytest.approx(140.0)
    assert combined_idle_lifetime(IdleErrorModel(100.0, 100.0)) == pytest.approx(50.0)


@settings(max_examples=30, deadline=None)
@given(
    duration=st.floats(min_value=0.0, max_value=500.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_occupancy_only_shrinks_under_idle(duration, seed):
    rng = np.random.default_rng(seed)
    reg = np.array([F2, F1, VACANT, F2, VACANT, F1, F2, F2], np.int8)
    before = set(np.flatnonzero(reg != VACANT))
    after = set(np.flatnonzero(idle(reg, duration, IdleErrorModel(), rng) != VACANT))
    assert after <= before
