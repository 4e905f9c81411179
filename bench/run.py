#!/usr/bin/env python3
"""cavreg benchmark: end-to-end CLI runs per workload, or a traced run.

    python3 bench/run.py --workload readout-seq --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from anywhere inside a source checkout: it runs `src/cavreg` of the
checkout it sits in, never an installed copy.  Load model: closed loop with
one client.  Each repetition of a workload runs its CLI experiments one
after the other, each in a fresh `python3` process (bench/child.py), and
repetitions follow each other until `--seconds` have passed (at least
MIN_REPS).  The workload seed reaches the program only as `--seed` plus a
generated config file (the shipped defaults.cfg with the workload's trial
count and thread count).

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over repetitions, with times scaled to reference host speed by a
reference loop timed between repetitions: see hostspeed.py); with
`--trace 1` it reports the per-layer metrics of the traced repetitions and
writes their spans to `.bench_out/trace-<workload>-<seed>.json`.  Every run
is checked against closed forms cavreg exports, against the other
repetitions (same bytes at the same seed) and against a thread-count swap;
a run that fails any check counts in `failed`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 3
HARD_CAP_S = 150.0  # start no repetition after this; a run must end within 180 s
CHILD_TIMEOUT_S = 160.0
K_SIGMA = 6.0  # reference-check window in standard errors
INVARIANCE_TRIALS = 20_000  # error-scaling trials/point for the thread swap
SEED_LIMIT = 1 << 64


# After each repetition the workload's reference loop (hostspeed.py) runs in
# REFERENCE_PROCESSES fresh processes, one after the other, together for
# REFERENCE_SHARE of the repetition's wall time.
REFERENCE_SHARE = 0.25
REFERENCE_PROCESSES = 2


# ------------------------------------------------------------ reference checks
# Each takes the CSV rows, the .meta.json dict, the trial count and the
# cavreg module, and returns a list of problems (empty when the run is right).


def check_depump(rows, meta, trials, cav):
    problems = []
    if len(rows) != 55:
        problems.append(f"{len(rows)} rows, expected 55 (sizes 1-10)")
    fit = meta["summary"].get("error_vs_size")
    expected = cav.hidden_depump_probability(cav.HidingModel(), 2.0)
    if fit is None:
        problems.append("no error_vs_size fit in the summary")
    elif not abs(fit["slope"] - expected) <= K_SIGMA * fit["slope_stderr"]:
        problems.append(
            f"slope {fit['slope']:.3g} +- {fit['slope_stderr']:.2g} is not within "
            f"{K_SIGMA:g} stderr of hidden_depump_probability {expected:.3g}"
        )
    return problems


def check_search(rows, meta, trials, cav):
    problems = []
    if len(rows) != 135:
        problems.append(f"{len(rows)} rows, expected 135")
    for r in rows:
        mean, se, exact = float(r["mean_intervals"]), float(r["stderr"]), float(r["analytic"])
        ok = mean == exact if se == 0 else abs(mean - exact) <= K_SIGMA * se
        if not ok:
            problems.append(
                f"n={r['n']} p={r['p']} {r['strategy']}: mean {mean} +- {se} vs analytic {exact}"
            )
    return problems


def check_error_scaling(rows, meta, trials, cav):
    problems = []
    if len(rows) != 15:
        problems.append(f"{len(rows)} rows, expected 15")
    for r in rows:
        d, p = int(r["d"]), float(r["p_phys"])
        if int(r["survivors"]) != d:
            problems.append(f"d={d} p={p}: survivors {r['survivors']} is not post-selected")
            continue
        got, se = float(r["p_logical"]), float(r["stderr"])
        exact = cav.majority_error_probability(d, p)
        if not abs(got - exact) <= K_SIGMA * se:
            problems.append(f"d={d} p={p}: p_logical {got} +- {se} vs exact {exact}")
    return problems


def check_lifetime(rows, meta, trials, cav):
    fits = meta["summary"].get("fits", {})
    problems = [] if len(fits) == 4 else [f"{len(fits)} lifetime fits, expected 4"]
    for name, fit in fits.items():
        if not math.isfinite(fit.get("tau_ms", math.nan)):
            problems.append(f"fit {name}: tau_ms {fit.get('tau_ms')} is not finite")
    return problems


def check_histogram(rows, meta, trials, cav):
    totals: dict[str, int] = {}
    for r in rows:
        totals[r["condition"]] = totals.get(r["condition"], 0) + int(r["frequency"])
    expected = {c: trials for c in ("bright_full", "bright_adaptive", "dark_full")}
    return [] if totals == expected else [f"condition totals {totals}, expected {expected}"]


@dataclass(frozen=True)
class Experiment:
    trials_key: str  # [run] config key holding its trial count
    points: int  # sweep points of the shipped defaults.cfg sweep
    check: Callable[..., list[str]]


EXPERIMENTS = {
    "depump-scaling": Experiment("trials", 10, check_depump),
    "search-cost": Experiment("trials", 135, check_search),
    "error-scaling": Experiment("error_scaling_trials", 15, check_error_scaling),
    "lifetime": Experiment("lifetime_trials", 4, check_lifetime),
    "histogram": Experiment("trials", 3, check_histogram),
}

# ROADMAP baseline (2-core machine, Python 3.11.7, numpy 2.4.6):
# command -> (seconds, at trials, threads), scaled linearly in trials.
ROADMAP_BASELINE = {
    "depump-scaling": (56.6, 10_000, 1),
    "search-cost": (21.7, 10_000, 1),
    "error-scaling": (7.3, 400_000, 2),
}

# ------------------------------------------------------------------ workloads

COMMON_CALLS = (
    "cli.main", "config.load_config", "harness.run",
    "harness.write_result_csv", "harness.write_metadata",
    "streams.stream", "streams.map_chunks", "streams.chunk",
)


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]
    run_keys: dict  # [run] keys set in the generated config
    expect_calls: tuple[str, ...]  # layers the traced run must see called
    reference: str  # hostspeed.LOOPS entry that mirrors how it spends time


WORKLOADS = {
    "readout-seq": Workload(
        ("depump-scaling",),
        {"trials": 500, "threads": 1},
        ("photons.sample_adaptive_interval", "readout.measure_site",
         "readout.sequential_array_readout", "register.uniform_register",
         "fitting.fit_linear"),
        "scalar",
    ),
    "search-scan": Workload(
        ("search-cost",),
        {"trials": 1500, "threads": 1},
        ("search.sample_register", "search.run_search", "search.group_check"),
        "scalar",
    ),
    "code-sweep": Workload(
        ("error-scaling", "lifetime", "histogram"),
        {"trials": 1_000_000, "error_scaling_trials": 100_000, "threads": 2},
        ("photons.sample_adaptive_bright_batch", "repcode.simulate_code_abstract",
         "repcode.simulate_idling_bit", "repcode.logical_lifetime",
         "repcode.fit_error_exponent", "fitting.fit_saturating_exponential",
         "fitting.fit_linear"),
        "vector",
    ),
}

END_TO_END = {
    "wall_s": "s", "trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run.  Suffixes: .calls, .self_s, .s,
# .wall_s, .busy_s and .us_per_call read the merged tracer statistics; the
# rest are derived in layer_metrics.
PER_LAYER = {
    "photons.sample_adaptive_interval.calls": "count",
    "photons.sample_adaptive_interval.self_s": "s",
    "photons.sample_adaptive_interval.us_per_call": "us",
    "photons.sample_full_interval.calls": "count",
    "photons.sample_adaptive_bright_batch.calls": "count",
    "photons.sample_adaptive_bright_batch.self_s": "s",
    "photons.sample_adaptive_bright_batch.samples_per_s": "1/s",
    "readout.measure_site.calls": "count",
    "readout.measure_site.self_s": "s",
    "readout.measure_site.us_per_call": "us",
    "readout.sequential_array_readout.calls": "count",
    "readout.sequential_array_readout.self_s": "s",
    "register.uniform_register.calls": "count",
    "register.uniform_register.self_s": "s",
    "search.sample_register.calls": "count",
    "search.sample_register.self_s": "s",
    "search.run_search.calls": "count",
    "search.run_search.self_s": "s",
    "search.group_check.calls": "count",
    "search.group_check.self_s": "s",
    "search.checks_per_trial": "count",
    "streams.stream.calls": "count",
    "streams.stream.self_s": "s",
    "streams.map_chunks.calls": "count",
    "streams.map_chunks.wall_s": "s",
    "streams.chunk.busy_s": "s",
    "streams.busy_frac": "fraction",
    "repcode.simulate_code_abstract.calls": "count",
    "repcode.simulate_code_abstract.self_s": "s",
    "repcode.trial_rounds_per_s": "1/s",
    "repcode.simulate_idling_bit.calls": "count",
    "repcode.simulate_idling_bit.self_s": "s",
    "repcode.logical_lifetime.self_s": "s",
    "repcode.fit_error_exponent.self_s": "s",
    "fitting.fit_saturating_exponential.calls": "count",
    "fitting.fit_saturating_exponential.self_s": "s",
    "fitting.fit_linear.calls": "count",
    "fitting.fit_linear.self_s": "s",
    "harness.run.self_s": "s",
    "harness.write_result_csv.s": "s",
    "harness.write_metadata.s": "s",
    "harness.csv_bytes": "bytes",
    "config.load_config.s": "s",
    "cli.main.s": "s",
    "trace.overhead_frac": "fraction",
}


def layer_metrics(trace: dict, csv_bytes: int, overhead_frac: float) -> dict:
    stats = trace["stats"]

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "photons.sample_adaptive_bright_batch.samples_per_s": ratio(
            get("photons.sample_adaptive_bright_batch", "work"),
            get("photons.sample_adaptive_bright_batch", "total_s")),
        "repcode.trial_rounds_per_s": ratio(
            get("repcode.simulate_code_abstract", "work"),
            get("repcode.simulate_code_abstract", "total_s")),
        "search.checks_per_trial": ratio(
            get("search.group_check", "calls"), get("search.run_search", "calls")),
        "streams.busy_frac": ratio(
            get("streams.chunk", "total_s"), trace["map_capacity_s"]),
        # chunk callables are harness code, so their self time is harness's
        "harness.run.self_s": get("harness.run", "self_s") + get("streams.chunk", "self_s"),
        "harness.csv_bytes": csv_bytes,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for metric in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        name, suffix = metric.rsplit(".", 1)
        if suffix == "calls":
            out[metric] = get(name, "calls")
        elif suffix == "self_s":
            out[metric] = get(name, "self_s")
        elif suffix == "us_per_call":
            out[metric] = ratio(get(name, "total_s"), get(name, "calls")) * 1e6
        else:  # s, wall_s, busy_s: inclusive time
            out[metric] = get(name, "total_s")
    return out


def design_confirmations(workload: str, trace: dict) -> list[tuple[str, bool]]:
    """The predictions of the workload design, checked on the traced run."""
    stats = trace["stats"]

    def calls(prefix):
        return sum(s["calls"] for n, s in stats.items() if n.startswith(prefix))

    def self_s(*prefixes):
        return sum(s["self_s"] for n, s in stats.items()
                   if n.startswith(prefixes) and n != "streams.chunk")

    run_s = stats.get("harness.run", {}).get("total_s", 0.0)
    if workload == "readout-seq":
        share = self_s("photons.", "readout.", "streams.") / run_s if run_s else 0.0
        return [
            (f"photons+readout+streams self time is {share:.0%} of harness.run (> 50%)",
             share > 0.5),
            ("search and repcode have zero calls", calls("search.") + calls("repcode.") == 0),
        ]
    if workload == "search-scan":
        share = self_s("search.") / run_s if run_s else 0.0
        return [
            (f"search self time is {share:.0%} of harness.run (> 50%)", share > 0.5),
            ("photons and readout have zero calls", calls("photons.") + calls("readout.") == 0),
        ]
    return [
        ("sample_adaptive_interval and run_search have zero calls",
         calls("photons.sample_adaptive_interval") + calls("search.run_search") == 0),
    ]


# ------------------------------------------------------------------ CLI runs


@dataclass
class RunResult:
    command: str
    problems: list
    wall_s: float
    setup_s: float | None = None
    run_s: float | None = None
    rss_kb: int = 0
    digest: str = ""
    csv_bytes: int = 0
    trace: dict | None = None
    numpy: str = ""


def write_config(path: Path, run_keys: dict) -> dict:
    """The shipped defaults.cfg with the given [run] keys replaced; returns
    the resulting [run] integer values."""
    text = (SRC / "cavreg" / "defaults.cfg").read_text(encoding="utf-8")
    for key, value in run_keys.items():
        text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if n != 1:
            raise RuntimeError(f"defaults.cfg has {n} lines for run key {key!r}")
    path.write_text(text, encoding="utf-8")
    run_section = text[text.index("[run]"):]
    return {k: int(v) for k, v in re.findall(r"(?m)^(\w+)\s*=\s*(\d+)\b", run_section)}


def run_cli(work: Path, tag: str, command: str, config: Path, seed: int,
            trials: int, trace: bool, cav) -> RunResult:
    out = work / f"{tag}-{command}.csv"
    record_path = work / f"{tag}-{command}.record.json"
    log = work / f"{tag}-{command}.log"
    argv = [sys.executable, str(HERE / "child.py"), str(record_path), str(int(trace)),
            str(SRC), "--", command, "--config", str(config), "--seed", str(seed),
            "--out", str(out)]
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, cwd=work)
        # a blocking wait returns at exit; wait(timeout=...) polls in steps
        # of up to 50 ms, which would add that much noise to wall_s
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
            timer.join()
    res = RunResult(command, [], time.perf_counter() - t0)
    if rc != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        res.problems.append(f"exit code {rc} (-9 after {CHILD_TIMEOUT_S:g} s is the timeout): "
                            f"{' | '.join(tail)}")
        return res
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
        csv_data = out.read_bytes()
        meta_data = Path(str(out) + ".meta.json").read_bytes()
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        res.problems += EXPERIMENTS[command].check(rows, json.loads(meta_data), trials, cav)
    except (OSError, ValueError, KeyError, TypeError) as err:
        res.problems.append(f"unreadable output: {err!r}")
        return res
    res.setup_s, res.run_s = record["setup_s"], record["run_s"]
    res.rss_kb, res.trace, res.numpy = record["maxrss_kb"], record.get("trace"), record["numpy"]
    res.csv_bytes = len(csv_data)
    res.digest = hashlib.sha256(csv_data + meta_data).hexdigest()
    return res


class WorkloadRun:
    """One workload at one seed: generated configs, runs and their tally."""

    def __init__(self, workload: str, seed: int, cav):
        self.name, self.wl, self.seed, self.cav = workload, WORKLOADS[workload], seed, cav
        self.work = OUT / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "workload.cfg"
        run_values = write_config(self.config, self.wl.run_keys)
        self.trials = {c: run_values[EXPERIMENTS[c].trials_key] for c in self.wl.commands}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.numpy = ""
        self.reference_s: list[float] = []  # reference loop times over the run
        self.startup_s: list[float] = []  # `import numpy` times of those processes

    def total_trials(self) -> int:
        return sum(self.trials[c] * EXPERIMENTS[c].points for c in self.wl.commands)

    def tally(self, res: RunResult, tag: str, compare: bool = True) -> None:
        """Count one CLI run; with compare, its bytes must equal those of
        the first run of the same command."""
        self.attempted += 1
        if compare and res.digest:
            first = self.digests.setdefault(res.command, res.digest)
            if res.digest != first:
                res.problems.append("output bytes differ from the first repetition")
        if res.numpy:
            self.numpy = res.numpy
        if res.problems:
            self.failed += 1
            self.problems += [f"{tag} {res.command}: {p}" for p in res.problems]

    def rep(self, tag: str, trace: bool = False) -> list[RunResult]:
        results = [
            run_cli(self.work, tag, c, self.config, self.seed, self.trials[c], trace, self.cav)
            for c in self.wl.commands
        ]
        if trace and all(r.trace for r in results):
            # the tracer's self-test: each layer this workload exists for was called
            seen = merge_traces(results)["stats"]
            missing = [n for n in COMMON_CALLS + self.wl.expect_calls
                       if seen.get(n, {}).get("calls", 0) == 0]
            if missing:
                results[-1].problems.append(f"traced run reports no calls for {', '.join(missing)}")
        for r in results:
            self.tally(r, tag)
        return results

    def thread_invariance(self) -> None:
        """Untimed, reduced-trial error-scaling at 1 and 2 threads must write
        identical bytes.  Also warms the bytecode and page caches."""
        results = []
        for threads in (1, 2):
            cfg = self.work / f"invariance-{threads}.cfg"
            write_config(cfg, {"error_scaling_trials": INVARIANCE_TRIALS, "threads": threads})
            results.append(run_cli(self.work, f"threads{threads}", "error-scaling", cfg,
                                   self.seed, INVARIANCE_TRIALS, False, self.cav))
        one, two = results
        if one.digest and two.digest and one.digest != two.digest:
            two.problems.append("bytes differ from the same run at 1 thread")
        for r in results:
            self.tally(r, "invariance", compare=False)

    def repeat(self, deadline: float, start: float, trace: bool, minimum: int):
        """Repetitions until the deadline.  Untraced, the reference loop is
        timed before the first repetition and after each one."""
        reps = []
        if not trace:
            self.sample_host(1.0)
        while len(reps) < minimum or time.perf_counter() < deadline:
            if reps and time.perf_counter() - start + max(rep_wall(r) for r in reps) > HARD_CAP_S:
                break
            reps.append(self.rep(f"{'traced' if trace else 'rep'}{len(reps)}", trace))
            if not trace:
                self.sample_host(REFERENCE_SHARE * rep_wall(reps[-1]))
        return reps

    def sample_host(self, seconds: float) -> None:
        for _ in range(REFERENCE_PROCESSES):
            import_s, loop_s = hostspeed.measure(self.wl.reference, seconds / REFERENCE_PROCESSES)
            self.startup_s.append(import_s)
            self.reference_s += loop_s

    def host_scale(self) -> float:
        """Reference-host seconds per second measured during this run."""
        return hostspeed.LOOPS[self.wl.reference][1] / statistics.median(self.reference_s)

    def startup_scale(self) -> float:
        """The same for set-up, from the reference processes' `import numpy`."""
        return hostspeed.IMPORT_NOMINAL_S / statistics.median(self.startup_s)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def rep_wall(rep: list[RunResult]) -> float:
    return sum(r.wall_s for r in rep)


def complete(reps):
    return [rep for rep in reps if all(r.run_s is not None for r in rep)]


def end_to_end(wr: WorkloadRun, reps, scale: float = 1.0, setup_scale: float = 1.0) -> dict:
    """Medians over the repetitions; times multiplied by `scale`, set-up
    times by `setup_scale` (1 gives the times as measured)."""
    good = complete(reps)
    if not good:
        return {m: 0.0 for m in END_TO_END}
    trials = wr.total_trials()
    return {
        "wall_s": statistics.median(rep_wall(rep) for rep in good) * scale,
        "trials_per_s": statistics.median(trials / sum(r.run_s for r in rep)
                                          for rep in good) / scale,
        "setup_s": statistics.median(sum(r.setup_s for r in rep) for rep in good) * setup_scale,
        "peak_rss_mb": statistics.median(max(r.rss_kb for r in rep) / 1024 for rep in good),
    }


def merge_traces(rep: list[RunResult]) -> dict:
    stats: dict[str, dict] = {}
    capacity = 0.0
    for r in rep:
        capacity += r.trace["map_capacity_s"]
        for name, s in r.trace["stats"].items():
            m = stats.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                m[key] += value
    return {"stats": stats, "map_capacity_s": capacity}


# --------------------------------------------------------------------- report


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_host(wr: WorkloadRun) -> None:
    print(f"host: nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
          f"python {platform.python_version()}, numpy {wr.numpy or '?'}, "
          f"git {git_sha()}")
    counts = ", ".join(
        f"{c} {wr.trials[c]} trials x {EXPERIMENTS[c].points} points"
        for c in wr.wl.commands
    )
    print(f"{wr.name}: {counts}; threads {wr.wl.run_keys['threads']}; "
          f"{wr.total_trials()} trials per repetition")


def print_baseline(wr: WorkloadRun, reps) -> None:
    for c in wr.wl.commands:
        if c not in ROADMAP_BASELINE:
            continue
        base_s, base_trials, base_threads = ROADMAP_BASELINE[c]
        if base_threads != wr.wl.run_keys["threads"]:
            continue
        walls = [r.wall_s for rep in complete(reps) for r in rep if r.command == c]
        if walls:
            scaled = base_s * wr.trials[c] / base_trials
            got = statistics.median(walls)
            print(f"baseline: {c} median wall {got:.3f} s vs ROADMAP {scaled:.3f} s "
                  f"(= {base_s} s per {base_trials} trials, scaled; ratio {got / scaled:.3f})")


def bench_workload(name: str, seed: int, seconds: float, trace: bool, cav):
    start = time.perf_counter()
    wr = WorkloadRun(name, seed, cav)
    try:
        wr.thread_invariance()
        print_host(wr)
        deadline = time.perf_counter() + seconds
        if not trace:
            reps = wr.repeat(deadline, start, False, MIN_REPS)
            scale, setup_scale = wr.host_scale(), wr.startup_scale()
            metrics = end_to_end(wr, reps, scale, setup_scale)
            for i, rep in enumerate(reps):
                print(f"rep {i}: " + ", ".join(
                    f"{r.command} wall {r.wall_s:.3f} s setup {r.setup_s or 0:.3f} s "
                    f"run {r.run_s or 0:.3f} s" for r in rep))
            print_baseline(wr, reps)
            print(f"host: {wr.wl.reference} reference loop median "
                  f"{statistics.median(wr.reference_s) * 1e3:.2f} ms over "
                  f"{len(wr.reference_s)} samples, nominal "
                  f"{hostspeed.LOOPS[wr.wl.reference][1] * 1e3:.0f} ms: "
                  f"wall_s and trials_per_s below are scaled by {scale:.4f}")
            print(f"host: import numpy median {statistics.median(wr.startup_s) * 1e3:.2f} ms "
                  f"over {len(wr.startup_s)} reference processes, nominal "
                  f"{hostspeed.IMPORT_NOMINAL_S * 1e3:.0f} ms: setup_s below is scaled by "
                  f"{setup_scale:.4f}")
            print(f"{name} as measured: " + "  ".join(
                f"{k} {v:.6g} {END_TO_END[k]}" for k, v in end_to_end(wr, reps).items()))
            units = END_TO_END
        else:
            untraced = [wr.rep("rep0")]
            traced = wr.repeat(deadline, start, True, 1)
            metrics = traced_metrics(wr, untraced, traced)
            units = PER_LAYER
        frac = wr.failed / wr.attempted
        print(f"{name}: " + "  ".join(f"{k} {v:.6g} {units[k]}" for k, v in metrics.items())
              + f"  failed_frac {frac:.6g} fraction ({wr.failed}/{wr.attempted})")
        for p in wr.problems:
            print(f"FAILED {p}")
        return wr, metrics, units
    finally:
        wr.close()


def traced_metrics(wr: WorkloadRun, untraced, traced) -> dict:
    good = complete(traced)
    base = complete(untraced)
    if not good or not base:
        return {m: 0.0 for m in PER_LAYER}
    untraced_run = sum(r.run_s for r in base[0])
    traced_run = statistics.median(sum(r.run_s for r in rep) for rep in good)
    overhead = (traced_run - untraced_run) / untraced_run
    per_rep = [
        layer_metrics(merge_traces(rep), sum(r.csv_bytes for r in rep), overhead)
        for rep in good
    ]
    merged = merge_traces(good[-1])
    for text, ok in design_confirmations(wr.name, merged):
        print(f"design: {text}: {'confirmed' if ok else 'NOT confirmed'}")
    path = OUT / f"trace-{wr.name}-{wr.seed}.json"
    path.write_text(json.dumps({
        "workload": wr.name, "seed": wr.seed,
        "runs": [{"command": r.command, **r.trace} for r in good[-1]],
    }, indent=1), encoding="utf-8")
    print(f"trace: spans and statistics of the last traced repetition in {path}")
    # median_low keeps counts as the exact integers the tracer recorded
    return {m: statistics.median_low(rep[m] for rep in per_rep) for m in PER_LAYER}


def load_cavreg():
    """Import the checkout's cavreg (for the closed-form reference values)."""
    if not (SRC / "cavreg" / "__init__.py").is_file() or not (
        SRC / "cavreg" / "defaults.cfg"
    ).is_file():
        raise SystemExit(f"bench: no cavreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cavreg

    if Path(cavreg.__file__).resolve().parent != (SRC / "cavreg").resolve():
        raise SystemExit(f"bench: imported cavreg from {cavreg.__file__}, not {SRC}")
    return cavreg


def seed_arg(text: str) -> int:
    value = int(text)
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError("seed must lie in [0, 2**64)")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=seed_arg)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cav = load_cavreg()
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        wr, values, units = bench_workload(name, args.seed, args.seconds,
                                                bool(args.trace), cav)
        attempted += wr.attempted
        failed += wr.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
