"""Command-line front end: parse config, dispatch experiments, write CSV.

Exit codes: 0 success, 2 configuration error (one-line diagnostic on
stderr), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import load_config, schema_help
from .errors import ConfigurationError
from .harness import EXPERIMENTS, run, write_metadata, write_result_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavreg",
        description="Monte-Carlo simulator for site-selective cavity readout "
        "and repeated classical error correction of an atom register.",
        epilog=schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for exp in EXPERIMENTS.values():
        p = sub.add_parser(exp.command, help=exp.help)
        p.set_defaults(experiment=exp)
        _common_flags(p)
    v = sub.add_parser("validate-config", help="parse and range-check a config file")
    v.add_argument("--config", metavar="PATH", default=None)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", default=None,
                   help="config file (defaults to the packaged defaults.cfg)")
    p.add_argument("--seed", type=int, default=None, metavar="U64",
                   help="master seed (overrides run.master_seed)")
    p.add_argument("--trials", type=int, default=None, metavar="N",
                   help="Monte-Carlo trials (overrides the configured count)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output CSV path (default <command>.csv)")
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="worker threads; never changes the output bytes")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate-config":
            print("configuration OK")
            return 0
        exp = args.experiment
        flags = {"trials": args.trials, "master_seed": args.seed, "threads": args.threads}
        spec = dataclasses.replace(
            config.specs[exp.name], **{k: v for k, v in flags.items() if v is not None}
        )
        out = args.out if args.out is not None else f"{args.command}.csv"
        out_dir = os.path.dirname(out) or "."
        if not os.path.isdir(out_dir):
            raise ConfigurationError(f"output directory {out_dir!r} does not exist")
        finals = [out, out + ".meta.json"]
        bad = [path for path in finals if os.path.isdir(path) or not os.path.basename(path)]
        if bad:
            raise ConfigurationError(f"output path {bad[0]!r} is a directory, not a file")
        result = run(spec)
        # both files appear together or not at all
        temps = [f"{path}.{os.getpid()}.tmp" for path in finals]
        try:
            write_result_csv(temps[0], result)
            write_metadata(temps[1], spec, result)
            for tmp, final in zip(temps, finals):
                os.replace(tmp, final)
        finally:
            for tmp in temps:
                if os.path.exists(tmp):
                    os.remove(tmp)
        print(f"{args.command}: wrote {len(result.rows)} rows")
        for line in exp.summary_lines(result.summary):
            print(line)
        return 0
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
