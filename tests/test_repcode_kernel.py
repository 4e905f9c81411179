"""The closed-form abstract-code kernel against the per-round reference loop.

simulate_code_abstract draws each atom's loss round once and each round's
vote error once from the exact round hazard.  tests/oracles.py keeps the
round-by-round loop it replaced (one flip and one loss draw per atom, one
coin per trial and round); here both run the same configurations and every
per-round rate and survivor frequency must agree within K standard errors
of the difference.
"""

import itertools
import math

import numpy as np
import pytest

from cavreg import round_hazard, simulate_code_abstract
from cavreg.streams import stream

from oracles import repcode_reference_trace, repcode_round_hazard

K = 4.5
TRIALS = 50_000
ROUNDS = 8
FLIP = 0.2  # ties and majorities both common at every survivor count


def _rates_agree(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Per column, whether two frequencies over n trials each agree within
    K pooled standard errors of their difference."""
    pooled = (a + b) / 2
    se = np.sqrt(pooled * (1 - pooled) * 2 / n)
    return np.abs(a - b) <= K * se


@pytest.mark.parametrize(
    "distance, loss", list(itertools.product((1, 3, 5), (0.0, 0.037, 0.3, 1.0)))
)
def test_kernel_matches_reference_loop(distance, loss):
    kernel = simulate_code_abstract(distance, FLIP, loss, ROUNDS, TRIALS, stream(31, distance))
    ref = repcode_reference_trace(distance, FLIP, loss, ROUNDS, TRIALS, stream(32, distance))
    assert kernel.new_error.shape == kernel.survivors.shape == (TRIALS, ROUNDS)
    assert kernel.survivors.dtype == ref.survivors.dtype
    for name in ("new_error", "err_vs_initial"):
        ok = _rates_agree(
            getattr(kernel, name).mean(axis=0), getattr(ref, name).mean(axis=0), TRIALS
        )
        assert ok.all(), (name, np.flatnonzero(~ok))
    for s in range(distance + 1):
        ok = _rates_agree(
            (kernel.survivors == s).mean(axis=0), (ref.survivors == s).mean(axis=0), TRIALS
        )
        assert ok.all(), ("survivors", s, np.flatnonzero(~ok))


def test_kernel_survivors_follow_the_loss_law():
    # each atom is alive in round r with probability (1 - loss)**(r + 1)
    d, loss = 5, 0.3
    trace = simulate_code_abstract(d, FLIP, loss, ROUNDS, TRIALS, stream(33))
    alive = (1 - loss) ** np.arange(1, ROUNDS + 1)
    mean = trace.survivors.mean(axis=0)
    se = np.sqrt(d * alive * (1 - alive) / TRIALS)
    assert (np.abs(mean - d * alive) <= K * se).all()


@pytest.mark.parametrize("distance", range(1, 10))
def test_round_hazard_matches_oracle(distance):
    for p in (0.0, 1e-3, 0.02, 0.09, 0.2, 0.5, 0.7, 1.0):
        h = round_hazard(distance, p)
        assert h.shape == (distance + 1,)
        for s in range(distance + 1):
            assert math.isclose(h[s], repcode_round_hazard(s, p), rel_tol=0, abs_tol=1e-12)
