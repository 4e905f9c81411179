"""Run one cavreg CLI invocation in this fresh process and record timings.

    python3 child.py RECORD.json TRACE(0|1) SRC_DIR -- <cavreg CLI arguments>

The clock starts before `import cavreg`, so `setup_s` covers the package
import, argument parsing, `config.load_config` and the params build, up to
the moment the CLI enters `harness.run`.  `run_s` is the time inside
`harness.run`.  With TRACE=1 every name in tracer.PATCHES is wrapped and the
tracer's report is added to the record.  The record is written even when
the CLI fails; the exit code is the CLI's.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    record_path, trace, src = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RECORD TRACE SRC -- ARGS...")
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    import cavreg.cli as cli
    import numpy

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"cavreg imported from {cli.__file__}, not from {src}")

    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    marks = {"run_start": None, "run_s": 0.0}
    inner_run = cli.run

    def timed_run(spec):
        start = time.perf_counter()
        if marks["run_start"] is None:
            marks["run_start"] = start
        try:
            return inner_run(spec)
        finally:
            marks["run_s"] += time.perf_counter() - start

    cli.run = timed_run
    rc = cli.main(argv)
    record = {
        "rc": rc,
        "setup_s": None if marks["run_start"] is None else marks["run_start"] - T0,
        "run_s": marks["run_s"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        record["trace"] = tracer.report()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
