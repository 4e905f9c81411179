"""In-process tracer for the traced benchmark run.

`install` replaces each public cavreg function in the namespace its caller
looks it up in (see PATCHES) with a timing wrapper.  Hot leaf calls are
aggregated per layer name (calls, inclusive time, self time, work units);
coarse boundaries (the CLI entry, the experiment run, each sweep point,
the CSV/metadata writes and the fits) are also recorded as spans with a
parent.  Everything stays in memory until `report` is called at exit.

The wrappers are thread-safe: each thread keeps its own call stack and
statistics table; tables are registered under a lock the first time a
thread enters a wrapper and merged only after the run has finished.  The
wrappers never touch a random stream, so traced and untraced runs write
the same bytes (the benchmark checks this).
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from importlib import import_module

LEAF, SPAN, MAP = "leaf", "span", "map"


def _arg(name):
    """Work counter: the value of argument `name` of the wrapped call."""
    def work(sig, args, kwargs):
        return sig.bind(*args, **kwargs).arguments[name]
    return work


def _trial_rounds(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs).arguments
    return bound["n_trials"] * bound["rounds"]


# (module the caller looks the name up in, attribute, layer name, kind, work)
PATCHES = [
    ("cavreg.readout", "sample_adaptive_interval", "photons.sample_adaptive_interval", LEAF, None),
    ("cavreg.readout", "sample_full_interval", "photons.sample_full_interval", LEAF, None),
    ("cavreg.harness", "sample_adaptive_bright_batch", "photons.sample_adaptive_bright_batch",
     LEAF, _arg("n_trials")),
    ("cavreg.readout", "measure_site", "readout.measure_site", LEAF, None),
    ("cavreg.harness", "sequential_array_readout", "readout.sequential_array_readout", LEAF, None),
    ("cavreg.harness", "uniform_register", "register.uniform_register", LEAF, None),
    ("cavreg.harness", "sample_register", "search.sample_register", LEAF, None),
    ("cavreg.harness", "run_search", "search.run_search", LEAF, None),
    ("cavreg.search", "group_check", "search.group_check", LEAF, None),
    ("cavreg.harness", "stream", "streams.stream", LEAF, None),
    ("cavreg.harness", "map_chunks", "streams.map_chunks", MAP, None),
    ("cavreg.harness", "simulate_code_abstract", "repcode.simulate_code_abstract",
     LEAF, _trial_rounds),
    ("cavreg.harness", "simulate_idling_bit", "repcode.simulate_idling_bit", LEAF, None),
    ("cavreg.harness", "logical_lifetime", "repcode.logical_lifetime", SPAN, None),
    ("cavreg.repcode", "fit_error_exponent", "repcode.fit_error_exponent", SPAN, None),
    ("cavreg.repcode", "fit_saturating_exponential", "fitting.fit_saturating_exponential",
     SPAN, None),
    ("cavreg.harness", "fit_linear", "fitting.fit_linear", SPAN, None),
    ("cavreg.repcode", "fit_linear", "fitting.fit_linear", SPAN, None),
    ("cavreg.cli", "load_config", "config.load_config", SPAN, None),
    ("cavreg.cli", "run", "harness.run", SPAN, None),
    ("cavreg.cli", "write_result_csv", "harness.write_result_csv", SPAN, None),
    ("cavreg.cli", "write_metadata", "harness.write_metadata", SPAN, None),
    ("cavreg.cli", "main", "cli.main", SPAN, None),
]

# Per-chunk callable passed to map_chunks; its self time is harness code.
CHUNK = "streams.chunk"


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._ids = itertools.count()
        self.spans: list[dict] = []
        self.map_capacity_s = 0.0  # sum of map_chunks wall x threads used

    def _thread(self):
        local = self._local
        try:
            return local.frames, local.stats, local.spans
        except AttributeError:
            local.frames, local.stats, local.spans = [], {}, []
            with self._lock:
                self._tables.append(local.stats)
            return local.frames, local.stats, local.spans

    def leaf(self, name, fn, work=None):
        """Aggregate calls, inclusive and self time (and work) under name."""
        perf = time.perf_counter
        sig = inspect.signature(fn) if work is not None else None

        def wrapper(*args, **kwargs):
            frames, stats, _ = self._thread()
            frames.append(0.0)  # time spent in wrapped children
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = frames.pop()
                if frames:
                    frames[-1] += dt
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if work is not None:
                    rec[3] += work(sig, args, kwargs)

        return wrapper

    def span(self, name, fn, work=None):
        """A leaf that is also recorded as a span with its parent span."""
        inner = self.leaf(name, fn, work)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            _, _, stack = self._thread()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                with self._lock:
                    self.spans.append({
                        "id": sid, "name": name, "parent": parent,
                        "thread": threading.get_ident(), "start": start, "end": end,
                    })

        return wrapper

    def map_chunks(self, name, fn):
        """Span per sweep point; each chunk callable is a leaf named CHUNK."""
        perf = time.perf_counter

        def run_point(chunk_fn, chunks, threads=1):
            chunks = list(chunks)
            used = threads if threads > 1 and len(chunks) > 1 else 1
            t0 = perf()
            try:
                return fn(self.leaf(CHUNK, chunk_fn), chunks, threads)
            finally:
                with self._lock:
                    self.map_capacity_s += (perf() - t0) * used

        return self.span(name, run_point)

    def report(self) -> dict:
        """Merged per-name statistics and the recorded spans.  Call only
        after every traced thread has finished."""
        merged: dict[str, dict] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, self_s, work) in table.items():
                m = merged.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
                )
                m["calls"] += calls
                m["total_s"] += total
                m["self_s"] += self_s
                m["work"] += work
        return {
            "stats": merged,
            "spans": sorted(self.spans, key=lambda s: s["start"]),
            "map_capacity_s": self.map_capacity_s,
        }


def install(tracer: Tracer) -> None:
    """Wrap every name in PATCHES; a missing name is an error, so a moved
    call site fails loudly instead of reporting an empty layer."""
    for module_name, attr, name, kind, work in PATCHES:
        module = import_module(module_name)
        if not hasattr(module, attr):
            raise AttributeError(f"trace target {module_name}.{attr} does not exist")
        fn = getattr(module, attr)
        if kind == MAP:
            wrapped = tracer.map_chunks(name, fn)
        elif kind == SPAN:
            wrapped = tracer.span(name, fn, work)
        else:
            wrapped = tracer.leaf(name, fn, work)
        setattr(module, attr, wrapped)
