"""Experiment orchestration: seeded Monte-Carlo ensembles, estimation, CSV.

Every experiment is a deterministic function of (spec, master_seed): trials
are partitioned into fixed-size chunks, each chunk draws from a counter-based
stream keyed by (master_seed, point index, chunk index), and results are
reduced in chunk order.  Thread count changes wall-clock time only, never
output bytes.

EXPERIMENTS is the one list of experiments: each record names its params
class, how to build the params from a config, its [run] trial-count key, its
runner and its summary lines.  The CLI, `validate-config` and `run` read it.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .fitting import fit_linear
from .photons import PhotonModel, sample_adaptive_bright_batch
from .readout import (
    HidingModel,
    MeasurementErrorTable,
    ProbeConfig,
    sequential_array_readout,
)
from .register import F1_CODE, F2, VACANT_CODE, IdleErrorModel, state_codes, uniform_register
from .repcode import logical_lifetime, simulate_code_abstract, simulate_idling_bit
from .search import (
    GroupCheckNoise,
    Placement,
    SearchProblem,
    Strategy,
    expected_cost,
    run_search,
    sample_register,
)
from .streams import SEED_LIMIT, chunk_sizes, map_chunks, stream

if TYPE_CHECKING:
    from .config import Config


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "Estimate":
        samples = np.asarray(samples, dtype=float)
        n = len(samples)
        se = float(samples.std(ddof=1) / math.sqrt(n)) if n >= 2 else math.nan
        return cls(float(samples.mean()), se, n)

    @classmethod
    def from_binomial(cls, successes: int, n: int) -> "Estimate":
        p = successes / n
        return cls(p, math.sqrt(max(p * (1 - p), 0.0) / n), n)


@dataclass
class HistogramParams:
    photon: PhotonModel = field(default_factory=PhotonModel)


@dataclass
class DepumpScalingParams:
    sizes: list[int] = field(default_factory=lambda: list(range(1, 11)))
    rounds: int = 4
    hiding_power_mw: float = 2.0
    adaptive_rounds: bool = False
    adaptive: bool = True
    adaptive_loss_factor: float = 4.5
    idle_intervals: int = 0
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    table: MeasurementErrorTable = field(default_factory=MeasurementErrorTable)
    photon: PhotonModel = field(default_factory=PhotonModel)
    hiding: HidingModel = field(default_factory=HidingModel)


@dataclass
class SearchCostParams:
    sizes: list[int] = field(default_factory=lambda: list(range(2, 11)))
    probabilities: list[float] = field(default_factory=lambda: [0.0, 0.1, 0.3, 0.5, 1.0])
    strategies: list[Strategy] = field(
        default_factory=lambda: [
            Strategy.DETERMINISTIC_SEQUENTIAL,
            Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL,
            Strategy.PARTITIONED_BINARY,
        ]
    )
    placement: Placement = Placement.AT_MOST_ONE_BRIGHT
    noise: GroupCheckNoise = field(default_factory=GroupCheckNoise)


@dataclass
class ErrorScalingParams:
    distances: list[int] = field(default_factory=lambda: [1, 3, 5])
    flip_sweep: list[float] = field(
        default_factory=lambda: [0.02, 0.04, 0.08, 0.12, 0.2]
    )
    per_round_loss: float = 0.037
    rounds: int = 17
    post_select: str = "distance"  # "distance", "none", or an integer string


@dataclass
class LifetimeParams:
    distances: list[int] = field(default_factory=lambda: [1, 3, 5])
    per_round_flip: float = 0.09
    per_round_loss: float = 0.037
    rounds: int = 17
    idle_ms: float = 20.0
    round_overhead_ms: float = 4.0
    idle_model: IdleErrorModel = field(default_factory=IdleErrorModel)
    definition: str = "fitted_tau"


@dataclass
class ExperimentSpec:
    experiment: str
    parameters: Any = None
    trials: int = 10_000
    master_seed: int = 20250809
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise ConfigurationError(
                f"master seed {self.master_seed} is outside [0, 2**64)"
            )


@dataclass
class ExperimentResult:
    fieldnames: list[str]
    rows: list[dict]
    summary: dict


def _sweep(
    n_points: int,
    kernel: Callable[[int, np.random.Generator, int], Any],
    trials: int,
    master_seed: int,
    threads: int,
) -> list:
    """Per sweep point, the sum of kernel(point, rng, size) over the chunks
    of `trials`.  Each chunk draws from stream(master_seed, point, chunk
    index), and chunk results are summed in chunk order, so the thread count
    never changes the result."""

    def chunk_result(point: int, chunk: tuple[int, int, int]):
        index, _, size = chunk
        return kernel(point, stream(master_seed, point, index), size)

    return [
        functools.reduce(
            operator.add,
            map_chunks(functools.partial(chunk_result, point), chunk_sizes(trials), threads),
        )
        for point in range(n_points)
    ]


# ----------------------------------------------------------------- histogram


def run_histogram(
    params: HistogramParams, trials: int, master_seed: int, threads: int
) -> ExperimentResult:
    photon = params.photon
    conditions = ["bright_full", "bright_adaptive", "dark_full"]

    def histogram(point: int, rng: np.random.Generator, size: int) -> Counter:
        cond = conditions[point]
        if cond == "bright_adaptive":
            counts, _ = sample_adaptive_bright_batch(photon, size, rng)
        else:
            counts = rng.poisson(photon.mean_full(cond == "bright_full"), size=size)
        return Counter(counts.tolist())

    hists = _sweep(len(conditions), histogram, trials, master_seed, threads)
    rows = [
        {"counts": value, "frequency": hist[value], "condition": cond}
        for cond, hist in zip(conditions, hists)
        for value in sorted(hist)
    ]
    return ExperimentResult(["counts", "frequency", "condition"], rows, {})


# ----------------------------------------------------------- depump scaling


def _depump_params(config: Config) -> DepumpScalingParams:
    return DepumpScalingParams(
        sizes=config[("readout", "sizes")],
        rounds=config[("readout", "readout_rounds")],
        hiding_power_mw=config[("readout", "hiding_power_mw")],
        adaptive_rounds=config[("readout", "adaptive_rounds")],
        adaptive=config[("readout", "adaptive_termination")],
        adaptive_loss_factor=config[("readout", "adaptive_loss_factor")],
        idle_intervals=config[("readout", "idle_intervals")],
        probe=config.probe_config(),
        table=config.error_table(),
        photon=config.photon_model(),
        hiding=config.hiding_model(),
    )


def run_depump_scaling(
    params: DepumpScalingParams, trials: int, master_seed: int, threads: int
) -> ExperimentResult:
    """Bright-state error rates in repeated sequential readouts.

    Atoms are re-pumped to F=2 right after each measurement, so from the
    second round on every atom accumulates the same hidden-depump exposure
    (one per other-site measurement) between its own measurements.  Errors
    are counted among atoms whose presence was detected.  Each chunk of
    trials is read out as one state-code array.
    """
    readout_rounds = params.rounds

    def trial_counts(point: int, rng: np.random.Generator, size: int) -> np.ndarray:
        n = params.sizes[point]
        codes = state_codes(uniform_register(n, F2).sites)
        records, _ = sequential_array_readout(
            np.tile(codes, (size, 1)), list(range(n)), params.hiding_power_mw, rng,
            probe=params.probe, table=params.table, photon=params.photon, hiding=params.hiding,
            adaptive_rounds=params.adaptive_rounds, adaptive=params.adaptive,
            adaptive_loss_factor=params.adaptive_loss_factor, rounds=readout_rounds,
            idle_intervals=params.idle_intervals, re_prepare="bright",
        )
        # [site, round, (errors, detections)]
        acc = np.zeros((n, readout_rounds, 2), dtype=np.int64)
        for rec in records:
            inferred = rec.result.inferred
            # lost atoms / undetected presence are excluded
            detected = rec.was_occupied & (inferred != VACANT_CODE)
            acc[rec.site, rec.round_index] += (
                np.count_nonzero(detected & (inferred == F1_CODE)), np.count_nonzero(detected)
            )
        return acc

    totals = _sweep(len(params.sizes), trial_counts, trials, master_seed, threads)
    rows = []
    steady_counts = []  # per size, over rounds 2 and on
    first_round_by_site: dict[int, Estimate] = {}
    for n, total in zip(params.sizes, totals):
        steady = total[:, 1:, :] if readout_rounds > 1 else total
        for site in range(n):
            err, det = int(steady[site, :, 0].sum()), int(steady[site, :, 1].sum())
            est = Estimate.from_binomial(err, det) if det else Estimate(math.nan, math.nan, 0)
            rows.append(
                {
                    "n_sites": n,
                    "site_index": site,
                    "error_rate": est.mean,
                    "stderr": est.stderr,
                    "hiding_power_mW": params.hiding_power_mw,
                    "adaptive_rounds": int(params.adaptive_rounds),
                }
            )
        err, det = int(steady[:, :, 0].sum()), int(steady[:, :, 1].sum())
        steady_counts.append({"n_sites": n, "errors": err, "detections": det})
        if n == max(params.sizes):
            for site in range(n):
                e, d = int(total[site, 0, 0]), int(total[site, 0, 1])
                if d:
                    first_round_by_site[site] = Estimate.from_binomial(e, d)

    summary: dict[str, Any] = {"steady_state_counts": steady_counts}
    steady = [c for c in steady_counts if c["detections"]]
    if len(steady) >= 3:
        fit = fit_linear(
            [float(c["n_sites"]) for c in steady],
            [c["errors"] / c["detections"] for c in steady],
        )
        summary["error_vs_size"] = {
            "intercept": fit.intercept,
            "slope": fit.slope,
            "intercept_stderr": fit.intercept_stderr,
            "slope_stderr": fit.slope_stderr,
        }
    if len(first_round_by_site) >= 3:
        fit = fit_linear(
            [s + 1 for s in sorted(first_round_by_site)],
            [first_round_by_site[s].mean for s in sorted(first_round_by_site)],
        )
        summary["first_round_error_vs_position"] = {
            "intercept": fit.intercept,
            "slope": fit.slope,
            "slope_stderr": fit.slope_stderr,
        }
    fieldnames = [
        "n_sites", "site_index", "error_rate", "stderr",
        "hiding_power_mW", "adaptive_rounds",
    ]
    return ExperimentResult(fieldnames, rows, summary)


def _depump_lines(summary: dict) -> list[str]:
    if "error_vs_size" not in summary:
        return []
    fit = summary["error_vs_size"]
    return [
        "  error vs array size: intercept %.4f +- %.4f, slope %.5f +- %.5f per site"
        % (fit["intercept"], fit["intercept_stderr"], fit["slope"], fit["slope_stderr"])
    ]


# --------------------------------------------------------------- search cost


def _search_params(config: Config) -> SearchCostParams:
    return SearchCostParams(
        sizes=config[("search", "sizes")],
        probabilities=config[("search", "bright_probabilities")],
        strategies=config[("search", "strategies")],
        placement=config[("search", "placement")],
        noise=GroupCheckNoise(
            false_positive=config[("search", "false_positive")],
            false_negative=config[("search", "false_negative")],
        ),
    )


def run_search_cost(
    params: SearchCostParams, trials: int, master_seed: int, threads: int
) -> ExperimentResult:
    noise = (
        None
        if params.noise.false_positive == 0.0 and params.noise.false_negative == 0.0
        else params.noise
    )
    at_most_one = params.placement is Placement.AT_MOST_ONE_BRIGHT
    points = [
        (n, p, strat)
        for n in params.sizes
        for p in params.probabilities
        for strat in params.strategies
    ]

    def cost_moments(point: int, rng: np.random.Generator, size: int) -> np.ndarray:
        n, p, strat = points[point]
        problem = SearchProblem(n, p, params.placement)
        s = s2 = 0.0
        for _ in range(size):
            reg = sample_register(problem, rng)
            res = run_search(reg, strat, rng, at_most_one=at_most_one, noise=noise)
            s += res.intervals_used
            s2 += res.intervals_used**2
        return np.array([s, s2])

    rows = []
    for (n, p, strat), moments in zip(
        points, _sweep(len(points), cost_moments, trials, master_seed, threads)
    ):
        s, s2 = (float(m) for m in moments)
        mean = s / trials
        var = max(s2 / trials - mean**2, 0.0) * trials / max(trials - 1, 1)
        stderr = math.sqrt(var / trials)
        try:
            analytic = expected_cost(SearchProblem(n, p, params.placement), strat)
        except ConfigurationError:
            analytic = math.nan
        rows.append(
            {
                "n": n,
                "p": p,
                "strategy": strat.value,
                "mean_intervals": mean,
                "stderr": stderr,
                "analytic": analytic,
            }
        )
    fieldnames = ["n", "p", "strategy", "mean_intervals", "stderr", "analytic"]
    return ExperimentResult(fieldnames, rows, {})


# ------------------------------------------------------------- error scaling


@dataclass
class CurveCell:
    p_phys: float
    distance: int
    survivors: int
    p_logical: float
    stderr: float
    n_rounds: int
    flagged: bool


def check_post_select(params: ErrorScalingParams) -> None:
    """Reject a survivor count that some distance cannot reach."""
    if params.post_select in ("distance", "none"):
        return
    count, smallest = int(params.post_select), min(params.distances)
    if not 0 <= count <= smallest:
        raise ConfigurationError(
            f"code.post_select = {count} is outside [0, {smallest}] "
            "(0 to the smallest code distance)"
        )


def _error_scaling_params(config: Config) -> ErrorScalingParams:
    params = ErrorScalingParams(
        distances=config[("code", "distances")],
        flip_sweep=config[("code", "flip_sweep")],
        per_round_loss=config[("code", "per_round_loss")],
        rounds=config[("code", "rounds")],
        post_select=config[("code", "post_select")],
    )
    check_post_select(params)
    return params


def _post_selected_cells(p_phys: float, counts: np.ndarray, post_select: str) -> list[CurveCell]:
    """Per-round logical error cells of one sweep point.

    counts[s] holds (logical errors, rounds) among rounds with s surviving
    atoms, s = 0..d.  post_select "distance" keeps s = d, "none" reports
    every s, and an integer string keeps that s.  A cell with no rounds, no
    errors or a stderr above a tenth of its estimate is flagged.
    """
    d = len(counts) - 1
    if post_select == "none":
        groups = range(d + 1)
    elif post_select == "distance":
        groups = [d]
    else:
        groups = [int(post_select)]
    cells = []
    for s in groups:
        k, n = int(counts[s, 0]), int(counts[s, 1])
        if n == 0:
            cells.append(CurveCell(p_phys, d, s, math.nan, math.nan, 0, True))
            continue
        est = Estimate.from_binomial(k, n)
        flagged = k == 0 or est.stderr > 0.1 * est.mean
        cells.append(CurveCell(p_phys, d, s, est.mean, est.stderr, n, flagged))
    return cells


def run_error_scaling(
    params: ErrorScalingParams, trials: int, master_seed: int, threads: int
) -> ExperimentResult:
    check_post_select(params)
    points = [(d, p) for d in params.distances for p in params.flip_sweep]

    def survivor_counts(point: int, rng: np.random.Generator, size: int) -> np.ndarray:
        d, p = points[point]
        trace = simulate_code_abstract(d, p, params.per_round_loss, params.rounds, size, rng)
        acc = np.zeros((d + 1, 2), dtype=np.int64)
        for s in range(d + 1):
            sel = trace.survivors == s
            acc[s, 0] = int(trace.new_error[sel].sum())
            acc[s, 1] = int(sel.sum())
        return acc

    totals = _sweep(len(points), survivor_counts, trials, master_seed, threads)
    cells = [
        cell
        for (_, p), counts in zip(points, totals)
        for cell in _post_selected_cells(p, counts, params.post_select)
    ]
    rows = [
        {
            "p_phys": c.p_phys,
            "d": c.distance,
            "survivors": c.survivors,
            "p_logical": c.p_logical,
            "stderr": c.stderr,
        }
        for c in cells
    ]
    summary: dict[str, Any] = {"flagged_cells": [
        {"p_phys": c.p_phys, "d": c.distance, "survivors": c.survivors, "n_rounds": c.n_rounds}
        for c in cells if c.flagged
    ]}
    # looked up at call time, so a wrapper installed on cavreg.repcode is seen
    from .repcode import fit_error_exponent

    exponents = {}
    for d in params.distances:
        if d == 1:
            continue
        sel = [c for c in cells if c.distance == d and c.survivors == d and c.p_logical > 0]
        if len(sel) >= 4:
            try:
                exp, se = fit_error_exponent(
                    [c.p_phys for c in sel], [c.p_logical for c in sel]
                )
                exponents[str(d)] = {
                    "exponent": exp, "stderr": se, "theory": (d + 1) / 2
                }
            except ConfigurationError as err:
                exponents[str(d)] = {"error": str(err)}
    summary["exponents"] = exponents
    return ExperimentResult(
        ["p_phys", "d", "survivors", "p_logical", "stderr"], rows, summary
    )


def _error_scaling_lines(summary: dict) -> list[str]:
    lines = [
        "  d=%s: exponent %.2f +- %.2f (theory %.1f)"
        % (d, fit["exponent"], fit["stderr"], fit["theory"])
        for d, fit in summary["exponents"].items()
        if "exponent" in fit
    ]
    if summary["flagged_cells"]:
        lines.append(f"  {len(summary['flagged_cells'])} cell(s) flagged for low statistics")
    return lines


# ------------------------------------------------------------------ lifetime


def _lifetime_params(config: Config) -> LifetimeParams:
    return LifetimeParams(
        distances=config[("code", "distances")],
        per_round_flip=config[("code", "per_round_flip")],
        per_round_loss=config[("code", "per_round_loss")],
        rounds=config[("code", "rounds")],
        idle_ms=config[("code", "idle_ms")],
        round_overhead_ms=config[("code", "round_overhead_ms")],
        idle_model=config.idle_model(),
        definition=config[("code", "lifetime_definition")],
    )


def run_lifetime(
    params: LifetimeParams, trials: int, master_seed: int, threads: int
) -> ExperimentResult:
    """Error vs time of an unprotected idling bit (sweep point 0, d = 0 in
    the CSV) and of each code distance (points 1, 2, ...)."""
    round_time = params.idle_ms + params.round_overhead_ms
    times = round_time * np.arange(1, params.rounds + 1)

    def error_counts(point: int, rng: np.random.Generator, size: int) -> np.ndarray:
        if point == 0:
            p_err = simulate_idling_bit(params.idle_model, times, size, rng)
            return np.round(p_err * size).astype(np.int64)
        trace = simulate_code_abstract(
            params.distances[point - 1], params.per_round_flip, params.per_round_loss,
            params.rounds, size, rng,
        )
        out = np.zeros((2, params.rounds), dtype=np.int64)
        out[0] = trace.err_vs_initial.sum(axis=0)
        out[1] = trace.survivors.sum(axis=0)
        return out

    phys_counts, *code_counts = _sweep(
        1 + len(params.distances), error_counts, trials, master_seed, threads
    )
    phys = logical_lifetime(times, phys_counts / trials, params.definition)
    fits: dict[str, Any] = {"physical": _lifetime_jsonable(phys)}
    curves = [(0, phys_counts, None)]
    for d, acc in zip(params.distances, code_counts):
        res = logical_lifetime(times, acc[0] / trials, params.definition)
        fits[str(d)] = _lifetime_jsonable(res)
        fits[str(d)]["extension_factor"] = (
            res.lifetime_ms / phys.lifetime_ms if phys.lifetime_ms else math.nan
        )
        curves.append((d, acc[0], acc[1] / trials))

    rows = []
    for d, errors, surv_mean in curves:
        for r in range(params.rounds):
            est = Estimate.from_binomial(int(errors[r]), trials)
            rows.append(
                {
                    "t_ms": float(times[r]),
                    "d": d,
                    "p_err": est.mean,
                    "stderr": est.stderr,
                    "survivor_mean": math.nan if surv_mean is None else float(surv_mean[r]),
                }
            )

    summary = {"fits": fits, "round_time_ms": round_time, "definition": params.definition}
    return ExperimentResult(
        ["t_ms", "d", "p_err", "stderr", "survivor_mean"], rows, summary
    )


def _lifetime_jsonable(res) -> dict:
    return {
        "lifetime_ms": res.lifetime_ms,
        "tau_ms": res.tau_ms,
        "p_inf": res.p_inf,
        "crossing_1_minus_1_over_e_ms": res.crossing_1_minus_1_over_e_ms,
        "crossing_p_inf_over_e_ms": res.crossing_p_inf_over_e_ms,
        "low_confidence": res.low_confidence,
        "converged": res.fit.converged,
        "note": res.fit.note,
        "tau_stderr": res.fit.tau_stderr,
        "p_inf_stderr": res.fit.p_inf_stderr,
    }


def _lifetime_lines(summary: dict) -> list[str]:
    fits = summary["fits"]
    lines = ["  physical idling bit: tau %.1f ms" % fits["physical"]["tau_ms"]]
    for d, fit in fits.items():
        if d != "physical":
            note = " (low confidence)" if fit["low_confidence"] else ""
            lines.append(
                "  d=%s: tau %.1f ms, extension factor %.2f%s"
                % (d, fit["tau_ms"], fit["extension_factor"], note)
            )
    return lines


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Experiment:
    """Everything the CLI, the config check and `run` know of one experiment."""

    name: str  # ExperimentSpec.experiment; the CLI subcommand uses dashes
    help: str
    params: type
    build: Callable[[Config], Any]  # params from a parsed config
    trials_key: str  # [run] key holding the configured trial count
    runner: Callable[[Any, int, int, int], ExperimentResult]
    summary_lines: Callable[[dict], list[str]] = lambda summary: []

    @property
    def command(self) -> str:
        return self.name.replace("_", "-")


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "histogram", "photon-count histograms for bright/dark/adaptive conditions",
            HistogramParams, lambda config: HistogramParams(photon=config.photon_model()),
            "trials", run_histogram,
        ),
        Experiment(
            "depump_scaling", "bright-state error vs array size for a sequential hidden readout",
            DepumpScalingParams, _depump_params, "trials", run_depump_scaling, _depump_lines,
        ),
        Experiment(
            "search_cost", "mean readout intervals for bright-atom search strategies",
            SearchCostParams, _search_params, "trials", run_search_cost,
        ),
        Experiment(
            "error_scaling", "per-round logical error vs physical error for repetition codes",
            ErrorScalingParams, _error_scaling_params, "error_scaling_trials",
            run_error_scaling, _error_scaling_lines,
        ),
        Experiment(
            "lifetime", "logical error vs time and fitted lifetimes for repetition codes",
            LifetimeParams, _lifetime_params, "lifetime_trials", run_lifetime, _lifetime_lines,
        ),
    )
}


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Run an experiment; deterministic in (spec, master_seed) regardless of
    the thread count."""
    try:
        exp = EXPERIMENTS[spec.experiment]
    except KeyError:
        raise ConfigurationError(f"unknown experiment {spec.experiment!r}") from None
    params = spec.parameters if spec.parameters is not None else exp.params()
    if not isinstance(params, exp.params):
        raise ConfigurationError(
            f"experiment {spec.experiment!r} expects {exp.params.__name__}"
        )
    return exp.runner(params, spec.trials, spec.master_seed, spec.threads)


# ----------------------------------------------------------------- csv / io


def _jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_result_csv(path: str, result: ExperimentResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=result.fieldnames)
        writer.writeheader()
        for row in result.rows:
            writer.writerow({k: _format_cell(row[k]) for k in result.fieldnames})


def _format_cell(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    return value


def write_metadata(path: str, spec: ExperimentSpec, result: ExperimentResult) -> None:
    meta = {
        "experiment": spec.experiment,
        "parameters": _jsonable(spec.parameters),
        "trials": spec.trials,
        "master_seed": spec.master_seed,
        "summary": _jsonable(result.summary),
        "version": f"cavreg-{__version__}",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
