import math

import numpy as np
import pytest

from cavreg import ConfigurationError, fit_linear, fit_saturating_exponential
from cavreg.fitting import _REL_TOL, _amplitudes


def test_fit_linear_exact():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    fit = fit_linear(xs, 2.0 * xs + 1.0)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_linear_validation():
    with pytest.raises(ConfigurationError):
        fit_linear([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        fit_linear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("xs, ys", [([1.0, 2.0, math.nan], [1.0, 2.0, 3.0]),
                                    ([1.0, 2.0, 3.0], [1.0, -math.inf, 3.0])])
def test_fit_linear_rejects_non_finite_points(xs, ys):
    # a nan used to come back as an all-nan LinearFit
    with pytest.raises(ConfigurationError, match="finite"):
        fit_linear(xs, ys)


def test_fit_linear_noise_recovery(rng):
    xs = np.arange(50, dtype=float)
    ys = 0.5 + 0.03 * xs + rng.normal(0, 0.05, size=50)
    fit = fit_linear(xs, ys)
    assert abs(fit.slope - 0.03) < 4 * fit.slope_stderr
    assert abs(fit.intercept - 0.5) < 4 * fit.intercept_stderr


def test_satexp_exact_recovery():
    ts = np.linspace(5.0, 600.0, 40)
    ps = 0.5 * (1 - np.exp(-ts / 125.0))
    fit = fit_saturating_exponential(ts, ps)
    assert fit.converged
    assert fit.p_inf == pytest.approx(0.5, rel=1e-6)
    assert fit.tau_ms == pytest.approx(125.0, rel=1e-6)


def test_satexp_recovery_with_cap():
    ts = np.linspace(5.0, 600.0, 40)
    ps = 0.4 * (1 - np.exp(-ts / 80.0))
    fit = fit_saturating_exponential(ts, ps, p_inf_max=0.5)
    assert fit.p_inf == pytest.approx(0.4, rel=1e-6)
    assert fit.tau_ms == pytest.approx(80.0, rel=1e-6)


def test_satexp_constant_zero_flagged():
    ts = np.linspace(1.0, 10.0, 8)
    fit = fit_saturating_exponential(ts, np.zeros(8))
    assert not fit.converged
    assert fit.p_inf == 0.0
    assert math.isnan(fit.tau_ms)
    assert "unidentifiable" in fit.note


def test_satexp_exact_fit_stderrs_are_positive_zero():
    # the residuals vanish and the two times all but coincide, so each
    # variance of this optimum inside the grid comes out -0.0 and its
    # stderr reads +0.0
    fit = fit_saturating_exponential([42.0] * 2 + [42.0000000000042] * 3, [0.415] * 5,
                                     p_inf_max=0.5)
    assert fit.converged
    assert math.copysign(1.0, fit.tau_stderr) == math.copysign(1.0, fit.p_inf_stderr) == 1.0
    assert fit.tau_stderr == fit.p_inf_stderr == 0.0


@pytest.mark.parametrize("ts", [[1, 2, 3, 4, 5], [3.0] * 2 + [3.00000000003] * 3])
def test_satexp_grid_boundary_stderrs_are_nan(ts):
    # a flat curve fits best at the grid's lower edge, where the residuals
    # vanish; the data fix no tau there, so no stderr may read 0
    fit = fit_saturating_exponential(ts, [0.1] * 5, p_inf_max=0.5)
    assert not fit.converged and "grid boundary" in fit.note
    assert math.isnan(fit.tau_stderr) and math.isnan(fit.p_inf_stderr)


def test_satexp_validation():
    with pytest.raises(ConfigurationError):
        fit_saturating_exponential([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    with pytest.raises(ConfigurationError):
        fit_saturating_exponential([1, 2, 3, 4, 5], [0.1, 0.2, 0.3, 0.4, 1.4])
    with pytest.raises(ConfigurationError):
        fit_saturating_exponential([0, 1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4, 0.5])


@pytest.mark.parametrize("ps", [[0.1] * 5, [0.1, 0.2, 0.3, 0.4, 0.5]])
def test_satexp_rejects_a_single_time(ps):
    # every tau fits points at one time: it used to come back converged with
    # an arbitrary tau
    with pytest.raises(ConfigurationError, match="2 distinct times"):
        fit_saturating_exponential([5] * 5, ps)


def test_satexp_confidence_does_not_depend_on_point_order():
    # a curve that has saturated by its latest time, in either time order,
    # reads the plateau as reached; it used to read the last point given
    ts = np.arange(1.0, 11.0)
    ps = 0.4 * (1 - np.exp(-ts / 2.0))
    forward = fit_saturating_exponential(ts, ps)
    backward = fit_saturating_exponential(ts[::-1], ps[::-1])
    assert not forward.low_confidence and not backward.low_confidence
    assert backward.tau_ms == pytest.approx(forward.tau_ms, rel=1e-9)


@pytest.mark.parametrize("ts, ps", [
    ([1, 2, 3, 4, math.inf], [0.1, 0.2, 0.3, 0.4, 0.5]),
    ([1, 2, math.nan, 4, 5], [0.1, 0.2, 0.3, 0.4, 0.5]),
    ([1, 2, 3, 4, 5], [0.1, math.nan, 0.3, 0.4, 0.5]),
    ([1, 2, 3, 4, 5], [0.1, 0.2, 0.3, 0.4, math.inf]),
])
def test_satexp_rejects_non_finite_points(ts, ps, monkeypatch):
    # an inf time used to zoom forever and a nan probability to fit p_inf = nan;
    # both are rejected before the tau grid is built
    def no_grid(*args, **kwargs):
        raise AssertionError("built a tau grid for non-finite points")

    monkeypatch.setattr(np, "logspace", no_grid)
    with pytest.raises(ConfigurationError, match="finite"):
        fit_saturating_exponential(ts, ps)


def test_satexp_noise_recovery(rng):
    ts = np.linspace(10.0, 800.0, 30)
    truth = 0.5 * (1 - np.exp(-ts / 150.0))
    ps = np.clip(truth + rng.normal(0, 0.005, size=30), 0, 1)
    fit = fit_saturating_exponential(ts, ps, p_inf_max=0.5)
    assert abs(fit.tau_ms - 150.0) / 150.0 < 0.1
    assert fit.converged


def test_satexp_linear_data_pins_the_amplitude_cap():
    # data still rising linearly: the amplitude runs to its bound and the
    # note says so; plateau-level confidence is judged by logical_lifetime
    ts = np.linspace(1.0, 20.0, 10)
    ps = 0.001 * ts
    fit = fit_saturating_exponential(ts, ps)
    assert fit.p_inf == 1.0
    assert "upper bound" in fit.note


def _dense_argmin_tau(ts, ps, p_inf_max, points=10_001):
    """Brute force: the least-RSS tau of a dense log grid over the fit's
    range, then of two dense linear grids over the bracket around it, which
    resolve tau to about 5e-11 of itself."""
    grid = np.logspace(math.log10(ts.min() / 100.0), math.log10(ts.max() * 100.0), points)
    for _ in range(2):
        best = int(np.argmin(_amplitudes(ts, ps, grid, p_inf_max)[1]))
        grid = np.linspace(grid[max(best - 1, 0)], grid[min(best + 1, points - 1)], points)
    return float(grid[np.argmin(_amplitudes(ts, ps, grid, p_inf_max)[1])])


def test_satexp_tau_is_the_dense_argmin(rng):
    ts = 24.0 * np.arange(1, 18)
    first_grid = np.logspace(math.log10(ts.min() / 100.0), math.log10(ts.max() * 100.0), 200)
    edges = sharp = 0
    for i in range(48):
        # taus from below the grid's lower end to above its upper end; every
        # noise level with and without an amplitude under the curve's
        tau = math.exp(rng.uniform(math.log(0.05), math.log(3e5)))
        amp = rng.uniform(0.05, 0.5)
        p_inf_max = amp * rng.uniform(0.5, 0.95) if i % 4 == 3 else 0.5
        noise = (0.0, 1e-3, 5e-3)[i % 3]
        ps = np.clip(amp * (1 - np.exp(-ts / tau)) + rng.normal(0, noise, ts.size), 0, 1)
        fit = fit_saturating_exponential(ts, ps, p_inf_max=p_inf_max)
        dense = _dense_argmin_tau(ts, ps, p_inf_max)
        rss_fit, rss_dense = _amplitudes(ts, ps, np.array([fit.tau_ms, dense]), p_inf_max)[1]
        # within the zoom's final bracket, unless the RSS cannot tell the two
        # apart: a noisy or capped valley is flat to rounding over ~1e-7 of
        # tau, and a curve already saturated at its first point fits equally
        # well over a decade of tau
        assert abs(fit.tau_ms - dense) <= 2 * _REL_TOL * dense or (
            rss_fit <= rss_dense * (1 + 1e-12) + 1e-30
        )
        if noise == 0.0 and p_inf_max == 0.5 and ts.min() / 10 < tau < 10 * ts.max():
            # the exact model rising within the data: a sharp valley
            assert abs(fit.tau_ms - dense) <= 2 * _REL_TOL * dense
            sharp += 1
        best = int(np.argmin(_amplitudes(ts, ps, first_grid, p_inf_max)[1]))
        at_edge = best in (0, first_grid.size - 1)
        assert fit.converged == (not at_edge)
        edges += at_edge
    assert 0 < edges < 48 and sharp > 0
