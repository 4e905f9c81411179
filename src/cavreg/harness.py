"""Experiment orchestration: seeded Monte-Carlo ensembles, estimation, CSV.

Every experiment is a deterministic function of (spec, master_seed).  Its
runner hands `_sweep`, the one caller of `stream`, a (kernel, chunk) pair
per sweep point: a count-law point (chunk None) is drawn on the calling
thread as one chunk of all trials, a per-trial point in fixed-size chunks.
Chunk c of point i draws from the counter-based stream keyed by
(master_seed, i, c), and results are reduced in chunk order.  Thread count
changes wall-clock time only, never output bytes.

EXPERIMENTS is the one list of experiments: each record names its params
class, its one-line `Config.build` recipe for the params, its [run]
trial-count key, its runner and its summary lines.  The CLI,
`validate-config` and `run` read it.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from . import __version__
from .errors import ConfigurationError, check_finite, check_integers, check_sweep
from .fitting import MIN_FIT_POINTS, fit_linear
from .photons import PhotonModel, outcome_table, sample_adaptive_bright_batch
from .readout import DepumpScalingParams, HidingModel, sequential_array_readout
from .register import F1, F2, VACANT, IdleErrorModel, uniform_register
from .repcode import (
    check_code,
    logical_lifetime,
    round_counts,
    simulate_code_abstract,
    simulate_idling_bit,
)
from .search import (
    GroupCheckNoise,
    Placement,
    SearchProblem,
    Strategy,
    bright_bits,
    expected_cost,
    run_search,
    sample_register,
)
from .streams import CHUNK_TRIALS, SEED_LIMIT, chunk_sizes, map_chunks, stream

if TYPE_CHECKING:
    from .config import Config


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n: int

    @classmethod
    def from_binomial(cls, successes: int, n: int) -> "Estimate":
        """The success fraction with its binomial stderr; (nan, nan, 0) for
        no trials."""
        if n == 0:
            return cls(math.nan, math.nan, 0)
        p = successes / n
        return cls(p, math.sqrt(max(p * (1 - p), 0.0) / n), n)


@dataclass
class SearchCostParams:
    sizes: list[int] = field(default_factory=lambda: list(range(2, 11)))
    bright_probabilities: list[float] = field(default_factory=lambda: [0.0, 0.1, 0.3, 0.5, 1.0])
    strategies: list[Strategy] = field(
        default_factory=lambda: [
            Strategy.DETERMINISTIC_SEQUENTIAL,
            Strategy.GLOBAL_CHECK_THEN_SEQUENTIAL,
            Strategy.PARTITIONED_BINARY,
        ]
    )
    placement: Placement = Placement.AT_MOST_ONE_BRIGHT
    noise: GroupCheckNoise = field(default_factory=GroupCheckNoise)

    def __post_init__(self):
        check_sweep("search.sizes", self.sizes)
        check_sweep("search.bright_probabilities", self.bright_probabilities)
        check_sweep("search.strategies", self.strategies)
        # run_search_cost picks its kernel by these types, so no look-alike may stand in
        if not isinstance(self.noise, GroupCheckNoise):
            raise ConfigurationError(f"search noise {self.noise!r} is not a GroupCheckNoise")
        for s in self.strategies:
            if not isinstance(s, Strategy):
                raise ConfigurationError(f"{s!r} is not a Strategy", "search.strategies")
        for n, p in itertools.product(self.sizes, self.bright_probabilities):
            SearchProblem(n, p, self.placement)  # checks every sweep point and the placement


@dataclass
class ErrorScalingParams:
    distances: list[int] = field(default_factory=lambda: [1, 3, 5])
    flip_sweep: list[float] = field(
        default_factory=lambda: [0.02, 0.04, 0.08, 0.12, 0.2]
    )
    per_round_loss: float = 0.037
    rounds: int = 17
    post_select: str = "distance"  # "distance", "none", or an integer string

    def __post_init__(self):
        check_sweep("code.distances", self.distances)
        check_sweep("code.flip_sweep", self.flip_sweep)
        for d, p in itertools.product(self.distances, self.flip_sweep):
            check_code(d, self.rounds, {"code.flip_sweep": p,
                                        "code.per_round_loss": self.per_round_loss})
        _kept_survivors(self.post_select, min(self.distances))  # a count every distance reaches


@dataclass
class LifetimeParams:
    distances: list[int] = field(default_factory=lambda: [1, 3, 5])
    per_round_flip: float = 0.09
    per_round_loss: float = 0.037
    rounds: int = 17
    idle_ms: float = 20.0
    round_overhead_ms: float = 4.0
    idle_model: IdleErrorModel = field(default_factory=IdleErrorModel)

    def __post_init__(self):
        check_sweep("code.distances", self.distances)
        for d in self.distances:
            check_code(d, self.rounds, {"code.per_round_flip": self.per_round_flip,
                                        "code.per_round_loss": self.per_round_loss})
        check_finite("code.idle_ms", self.idle_ms, positive=False)
        check_finite("code.round_overhead_ms", self.round_overhead_ms, positive=False)
        if self.idle_ms + self.round_overhead_ms == 0:
            raise ConfigurationError("lifetime round time 0 ms (code.idle_ms + "
                                     "code.round_overhead_ms) must be positive")
        if self.rounds < MIN_FIT_POINTS:
            raise ConfigurationError(
                f"lifetime rounds {self.rounds}: the lifetime fit needs >= {MIN_FIT_POINTS}",
                "code.rounds",
            )


@dataclass
class ExperimentSpec:
    experiment: str
    parameters: Any = None
    trials: int = 10_000
    master_seed: int = 20250809
    threads: int = 1

    def __post_init__(self):
        try:
            exp = EXPERIMENTS[self.experiment]
        except KeyError:
            raise ConfigurationError(f"unknown experiment {self.experiment!r}") from None
        check_integers(f"run.{exp.trials_key}", self.trials, least=1)
        check_integers("run.threads", self.threads, least=1)
        check_integers("run.master_seed", self.master_seed)
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise ConfigurationError(f"{self.master_seed} is outside [0, 2**64)", "run.master_seed")
        if self.parameters is None:
            self.parameters = exp.params()
        if not isinstance(self.parameters, exp.params):
            raise ConfigurationError(
                f"experiment {self.experiment!r} expects {exp.params.__name__}"
            )


@dataclass
class ExperimentResult:
    fieldnames: list[str]
    rows: list[dict]
    summary: dict


def _sweep(spec: ExperimentSpec, points: list[tuple[Callable, int | None]]) -> list:
    """Per (kernel, chunk) point i, kernel(size, rng) over spec.trials trials,
    chunk c drawing from stream(spec.master_seed, i, c).  A count-law point
    (chunk None) is one call of all trials on the calling thread.  The other
    points are cut into chunks of `chunk` trials, the last one shorter, that
    all go, point-major, through one `map_chunks` call (none if there are no
    such points); each point's results are summed in chunk order."""
    out = [kernel(spec.trials, stream(spec.master_seed, i, 0)) if chunk is None else None
           for i, (kernel, chunk) in enumerate(points)]
    tasks = [(kernel, i, c, size) for i, (kernel, chunk) in enumerate(points) if chunk is not None
             for c, size in enumerate(chunk_sizes(spec.trials, chunk))]

    def chunk_result(task: tuple[Callable, int, int, int]):
        kernel, i, c, size = task
        return kernel(size, stream(spec.master_seed, i, c))

    if tasks:
        for (_, i, c, _), result in zip(tasks, map_chunks(chunk_result, tasks, spec.threads)):
            out[i] = result if c == 0 else out[i] + result
    return out


# ----------------------------------------------------------------- histogram

# Trials per histogram chunk.  A trial's state is a few bytes, so chunks
# larger than CHUNK_TRIALS cut the per-task overhead; at 16 384 a run's peak
# memory stays under lifetime's, and at 32 768 it no longer does.
HISTOGRAM_CHUNK = 1 << 14


def run_histogram(spec: ExperimentSpec) -> ExperimentResult:
    """Photon-count histograms of a bright and a dark emitter over the full
    interval and of a bright one under adaptive termination.

    Condition i is point i.  Its histogram is a count vector over the counts
    of its half of its outcome table, from its first count on.  Each
    full-interval condition is one multinomial draw of all trials over the
    full table's half, one cell per count; the adaptive counts are sampled
    per trial, in chunks of HISTOGRAM_CHUNK, and binned over the adaptive
    table's bright half."""
    photon = spec.parameters
    full, adaptive = outcome_table(photon, False), outcome_table(photon, True)
    halves = {"bright_full": (full, full.bright), "bright_adaptive": (adaptive, adaptive.bright),
              "dark_full": (full, ~full.bright)}
    law = {c: table.prob[half] for c, (table, half) in halves.items()}
    support = {c: table.counts[half] for c, (table, half) in halves.items()}
    first = {c: int(counts.min()) for c, counts in support.items()}
    n_adaptive = int(support["bright_adaptive"].max()) + 1 - first["bright_adaptive"]

    def draw(cond: str, size: int, rng: np.random.Generator) -> np.ndarray:
        if cond != "bright_adaptive":
            return rng.multinomial(size, law[cond])
        counts, _ = sample_adaptive_bright_batch(photon, size, rng)
        return np.bincount(counts - first[cond], minlength=n_adaptive)

    chunks = {"bright_full": None, "bright_adaptive": HISTOGRAM_CHUNK, "dark_full": None}
    hists = dict(zip(chunks, _sweep(spec, [(partial(draw, c), k) for c, k in chunks.items()])))
    rows = [
        {"counts": first[cond] + i, "frequency": int(hists[cond][i]), "condition": cond}
        for cond in hists
        for i in np.flatnonzero(hists[cond]).tolist()
    ]
    return ExperimentResult(["counts", "frequency", "condition"], rows, {})


# ----------------------------------------------------------- depump scaling


def run_depump_scaling(spec: ExperimentSpec) -> ExperimentResult:
    """Bright-state error rates in repeated sequential readouts.

    Atoms are re-pumped to F=2 right after each measurement, so from the
    second round on every atom accumulates the same hidden-depump exposure
    (one per other-site measurement) between its own measurements.  Errors
    are counted among atoms whose presence was detected.  Each chunk of
    trials is read out as one state-code array.
    """
    params = spec.parameters

    def trial_counts(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
        registers = np.tile(uniform_register(n, F2), (size, 1))
        records, _ = sequential_array_readout(registers, params, rng)
        # [site, round, (errors, detections)]
        acc = np.zeros((n, params.readout_rounds, 2), dtype=np.int64)
        for r, rec in enumerate(records):
            # lost atoms / undetected presence are excluded
            detected = (rec.prepared != VACANT) & (rec.inferred != VACANT)
            acc[:, r, 0] = np.count_nonzero(detected & (rec.inferred == F1), axis=0)
            acc[:, r, 1] = np.count_nonzero(detected, axis=0)
        return acc

    totals = _sweep(spec, [(partial(trial_counts, n), CHUNK_TRIALS) for n in params.sizes])
    fieldnames = ["n_sites", "site_index", "error_rate", "stderr", "hiding_power_mW",
                  "adaptive_rounds"]
    rows = []
    steady_counts = []  # per size, over rounds 2 and on
    for n, total in zip(params.sizes, totals):
        # [site, (errors, detections)] over rounds 2 and on, or round 1 if it is the only one
        steady = total[:, min(1, params.readout_rounds - 1):].sum(axis=1)
        for site, (err, det) in enumerate(steady.tolist()):
            est = Estimate.from_binomial(err, det)
            rows.append(dict(zip(fieldnames, (n, site, est.mean, est.stderr,
                                              params.hiding_power_mw, int(params.adaptive_rounds)))))
        err, det = steady.sum(axis=0).tolist()
        steady_counts.append({"n_sites": n, "errors": err, "detections": det})

    summary: dict[str, Any] = {"steady_state_counts": steady_counts}
    steady = [c for c in steady_counts if c["detections"]]
    if len(steady) >= 3:
        summary["error_vs_size"] = dataclasses.asdict(fit_linear(
            [float(c["n_sites"]) for c in steady],
            [c["errors"] / c["detections"] for c in steady],
        ))
    # [site, (errors, detections)] in round 1 of the largest array
    first_round = totals[params.sizes.index(max(params.sizes))][:, 0]
    seen = np.flatnonzero(first_round[:, 1])
    if seen.size >= 3:
        summary["first_round_error_vs_position"] = dataclasses.asdict(
            fit_linear(seen + 1, first_round[seen, 0] / first_round[seen, 1])
        )
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


def run_search_cost(spec: ExperimentSpec) -> ExperimentResult:
    """Mean readout intervals, with stderr and closed form, per (size,
    probability, strategy).

    A sweep point is a (size, probability) pair, and each chunk of it is one
    `sample_register` call that every strategy searches.  A noiseless
    search's cost is a function of the register's bright pattern alone, so a
    noiseless chunk searches each distinct pattern once and weighs it by its
    count of registers; a noisy chunk searches every register with weight 1.
    A chunk returns each strategy's cost moments (sum, sum of squares)."""
    params, trials = spec.parameters, spec.trials
    at_most_one = params.placement is Placement.AT_MOST_ONE_BRIGHT
    points = list(itertools.product(params.sizes, params.bright_probabilities))

    def cost_moments(n: int, p: float, size: int, rng: np.random.Generator) -> np.ndarray:
        codes = sample_register(SearchProblem(n, p, params.placement), rng, size)
        weights = np.ones(size, dtype=np.int64)
        if not params.noise:
            patterns, weights = np.unique(bright_bits(codes), return_counts=True)
            codes = F1 + (patterns[:, None] >> np.arange(n, dtype=np.uint64) & 1).astype(np.int8)
        cost = np.array([run_search(codes, s, rng, at_most_one=at_most_one, noise=params.noise)
                         .intervals_used for s in params.strategies])  # (strategy, register)
        return np.stack([cost @ weights, cost**2 @ weights], axis=1)

    fieldnames = ["n", "p", "strategy", "mean_intervals", "stderr", "analytic"]
    rows = []
    swept = _sweep(spec, [(partial(cost_moments, n, p), CHUNK_TRIALS) for n, p in points])
    cells = itertools.product(points, params.strategies)
    for ((n, p), strat), (s, s2) in zip(cells, np.concatenate(swept).tolist()):
        mean = s / trials
        var = max(s2 / trials - mean**2, 0.0) * trials / max(trials - 1, 1)
        stderr = math.sqrt(var / trials)
        try:
            analytic = expected_cost(SearchProblem(n, p, params.placement), strat)
        except ConfigurationError:
            analytic = math.nan
        if params.noise and strat is not Strategy.DETERMINISTIC_SEQUENTIAL:
            analytic = math.nan  # the closed forms assume noiseless checks
        rows.append(dict(zip(fieldnames, (n, p, strat.value, mean, stderr, analytic))))
    return ExperimentResult(fieldnames, rows, {})


# ------------------------------------------------------------- error scaling


def _kept_survivors(post_select: str, d: int) -> range:
    """The survivor counts whose rounds code.post_select keeps at distance d:
    "none" keeps 0..d, "distance" keeps d, and a count in [0, d] keeps itself."""
    if post_select == "none":
        return range(d + 1)
    try:
        s = d if post_select == "distance" else int(post_select)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{post_select!r} is not distance, none or a count",
                                 "code.post_select") from None
    if not 0 <= s <= d:  # a survivor count that this distance cannot reach
        raise ConfigurationError(f"{s} is outside [0, {d}] (0 to the smallest code distance)",
                                 "code.post_select")
    return range(s, s + 1)


def run_error_scaling(spec: ExperimentSpec) -> ExperimentResult:
    """Per-round logical error per (distance, flip) point and kept survivor
    count, and the log-log exponent of the full-distance cells.

    Each point's (clean, erring) round counts per survivor count come from
    repcode.round_counts, which samples the simulate_code_abstract ensemble's
    law without a per-trial trace: one multinomial draw per round moves the
    trials between survivor counts, and the erring rounds of each count are
    one binomial draw.  Its cost does not grow with the trials, so each
    point is a count-law point of `_sweep`.  A cell with no rounds, no
    errors or a stderr above a tenth of its estimate is flagged."""
    params = spec.parameters
    points = [(d, p) for d in params.distances for p in params.flip_sweep]
    totals = _sweep(spec, [(partial(round_counts, d, p, params.per_round_loss, params.rounds),
                            None) for d, p in points])
    fieldnames = ["p_phys", "d", "survivors", "p_logical", "stderr"]
    rows, flagged = [], []
    curves: dict[int, list[tuple[float, float]]] = {d: [] for d in params.distances}
    for (d, p), counts in zip(points, totals):
        for s in _kept_survivors(params.post_select, d):
            # counts[s]: (clean, erring) rounds with s survivors
            k, n = int(counts[s, 1]), int(counts[s].sum())
            est = Estimate.from_binomial(k, n)
            rows.append(dict(zip(fieldnames, (p, d, s, est.mean, est.stderr))))
            if k == 0 or est.stderr > 0.1 * est.mean:
                flagged.append({"p_phys": p, "d": d, "survivors": s, "n_rounds": n})
            if s == d and k > 0:
                curves[d].append((p, est.mean))
    # looked up at call time, so a wrapper installed on cavreg.repcode is seen
    from .repcode import fit_error_exponent

    exponents = {}
    for d, curve in curves.items():
        if d != 1 and len(curve) >= 4:
            try:
                exp, se = fit_error_exponent(*map(list, zip(*curve)))
                exponents[str(d)] = {"exponent": exp, "stderr": se, "theory": (d + 1) / 2}
            except ConfigurationError as err:
                exponents[str(d)] = {"error": str(err)}
    summary = {"flagged_cells": flagged, "exponents": exponents}
    return ExperimentResult(fieldnames, rows, summary)


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


def run_lifetime(spec: ExperimentSpec) -> ExperimentResult:
    """Error vs time of an unprotected idling bit (point 0, a count chain;
    d = 0 in the CSV) and of each code distance (points 1..k, per trial)."""
    params, trials = spec.parameters, spec.trials
    round_time = params.idle_ms + params.round_overhead_ms
    times = round_time * np.arange(1, params.rounds + 1)

    def error_counts(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
        trace = simulate_code_abstract(
            d, params.per_round_flip, params.per_round_loss, params.rounds, size, rng
        )
        return np.stack([trace.err_vs_initial.sum(axis=0), trace.survivors.sum(axis=0)])

    codes = [(partial(error_counts, d), CHUNK_TRIALS) for d in params.distances]
    phys_counts, *code_counts = _sweep(
        spec, [(partial(simulate_idling_bit, params.idle_model, times), None), *codes])
    phys = logical_lifetime(times, phys_counts / trials)
    fits: dict[str, Any] = {"physical": dataclasses.asdict(phys)}
    curves = [(0, phys_counts, None)]
    for d, acc in zip(params.distances, code_counts):
        res = logical_lifetime(times, acc[0] / trials)
        fits[str(d)] = {
            **dataclasses.asdict(res),
            "extension_factor": res.tau_ms / phys.tau_ms,
        }
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

    summary = {"fits": fits, "round_time_ms": round_time}
    return ExperimentResult(
        ["t_ms", "d", "p_err", "stderr", "survivor_mean"], rows, summary
    )


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
    build: Callable[[Config], Any]  # the params from a parsed config, via Config.build
    trials_key: str  # [run] key holding the configured trial count
    runner: Callable[[ExperimentSpec], ExperimentResult]
    summary_lines: Callable[[dict], list[str]] = lambda _: []

    @property
    def command(self) -> str:
        return self.name.replace("_", "-")


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "histogram", "photon-count histograms for bright/dark/adaptive conditions",
            PhotonModel, lambda c: c.photon_model(), "trials", run_histogram,
        ),
        Experiment(
            "depump_scaling", "bright-state error vs array size for a sequential hidden readout",
            DepumpScalingParams,
            lambda c: c.build(DepumpScalingParams, "readout", rates=c.error_rates(),
                              photon=c.photon_model(), hiding=c.build(HidingModel, "hiding")),
            "trials", run_depump_scaling, _depump_lines,
        ),
        Experiment(
            "search_cost", "mean readout intervals for bright-atom search strategies",
            SearchCostParams,
            lambda c: c.build(SearchCostParams, "search", noise=c.build(GroupCheckNoise, "search")),
            "trials", run_search_cost,
        ),
        Experiment(
            "error_scaling", "per-round logical error vs physical error for repetition codes",
            ErrorScalingParams, lambda c: c.build(ErrorScalingParams, "code"),
            "error_scaling_trials", run_error_scaling, _error_scaling_lines,
        ),
        Experiment(
            "lifetime", "logical error vs time and fitted lifetimes for repetition codes",
            LifetimeParams,
            lambda c: c.build(LifetimeParams, "code",
                              idle_model=c.build(IdleErrorModel, "register")),
            "lifetime_trials", run_lifetime, _lifetime_lines,
        ),
    )
}


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Run an experiment; deterministic in (spec, master_seed) regardless of
    the thread count."""
    return EXPERIMENTS[spec.experiment].runner(spec)


# ----------------------------------------------------------------- csv / io


def _json_default(obj: Any) -> Any:
    """What json.dump writes for a dataclass, an enum or a numpy scalar."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_result_csv(path: str, result: ExperimentResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.fieldnames)
        writer.writerows([row[k] for k in result.fieldnames] for row in result.rows)


def write_metadata(path: str, spec: ExperimentSpec, result: ExperimentResult) -> None:
    meta = {
        "experiment": spec.experiment,
        "parameters": spec.parameters,
        "trials": spec.trials,
        "master_seed": spec.master_seed,
        "summary": result.summary,
        "version": f"cavreg-{__version__}",
    }
    # RFC 8259 has no NaN or Infinity, which json writes bare: re-read them as null
    text = json.dumps(meta, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json.loads(text, parse_constant=lambda _: None), fh, indent=2)
        fh.write("\n")
