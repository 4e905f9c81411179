"""Command-line front end: parse config, dispatch experiments, write CSV.

Exit codes: 0 success, 2 configuration error (one-line diagnostic on
stderr), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import Config, load_config, schema_help
from .errors import ConfigurationError
from .harness import ExperimentSpec, run, write_metadata, write_result_csv
from .streams import SEED_LIMIT

_SUBCOMMANDS = {
    "histogram": (
        "histogram",
        "photon-count histograms for bright/dark/adaptive conditions",
    ),
    "depump-scaling": (
        "depump_scaling",
        "bright-state error vs array size for a sequential hidden readout",
    ),
    "search-cost": (
        "search_cost",
        "mean readout intervals for bright-atom search strategies",
    ),
    "error-scaling": (
        "error_scaling",
        "per-round logical error vs physical error for repetition codes",
    ),
    "lifetime": (
        "lifetime",
        "logical error vs time and fitted lifetimes for repetition codes",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavreg",
        description="Monte-Carlo simulator for site-selective cavity readout "
        "and repeated classical error correction of an atom register.",
        epilog=schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_exp, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
    v = sub.add_parser("validate-config", help="parse and range-check a config file")
    v.add_argument("--config", metavar="PATH", default=None)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", default=None,
                   help="config file (defaults to the packaged defaults.cfg)")
    p.add_argument("--seed", type=_seed, default=None, metavar="U64",
                   help="master seed (overrides run.master_seed)")
    p.add_argument("--trials", type=int, default=None, metavar="N",
                   help="Monte-Carlo trials (overrides the configured count)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output CSV path (default <command>.csv)")
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="worker threads; never changes the output bytes")


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"master seed {value} is outside [0, 2**64)")
    return value


def _configured_trials(config: Config, experiment: str) -> int:
    if experiment == "error_scaling":
        return config[("run", "error_scaling_trials")]
    if experiment == "lifetime":
        return config[("run", "lifetime_trials")]
    return config[("run", "trials")]


def _experiment_params(config: Config, experiment: str):
    builders = {
        "histogram": config.histogram_params,
        "depump_scaling": config.depump_params,
        "search_cost": config.search_params,
        "error_scaling": config.error_scaling_params,
        "lifetime": config.lifetime_params,
    }
    return builders[experiment]()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate-config":
            config.validate_models()
            print("configuration OK")
            return 0
        experiment = _SUBCOMMANDS[args.command][0]
        spec = ExperimentSpec(
            experiment=experiment,
            parameters=_experiment_params(config, experiment),
            trials=args.trials if args.trials is not None else _configured_trials(config, experiment),
            master_seed=args.seed if args.seed is not None else config[("run", "master_seed")],
            threads=args.threads if args.threads is not None else config[("run", "threads")],
        )
        result = run(spec)
        out = args.out if args.out is not None else f"{args.command}.csv"
        write_result_csv(out, result)
        write_metadata(out + ".meta.json", spec, result)
        _print_summary(args.command, result)
        return 0
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure
        print(f"error: {err}", file=sys.stderr)
        return 1


def _print_summary(command: str, result) -> None:
    print(f"{command}: wrote {len(result.rows)} rows")
    summary = result.summary
    if command == "depump-scaling" and "error_vs_size" in summary:
        fit = summary["error_vs_size"]
        print(
            "  error vs array size: intercept %.4f +- %.4f, slope %.5f +- %.5f per site"
            % (fit["intercept"], fit["intercept_stderr"], fit["slope"], fit["slope_stderr"])
        )
    if command == "error-scaling":
        for d, fit in summary.get("exponents", {}).items():
            if "exponent" in fit:
                print(
                    "  d=%s: exponent %.2f +- %.2f (theory %.1f)"
                    % (d, fit["exponent"], fit["stderr"], fit["theory"])
                )
        if summary.get("flagged_cells"):
            print(f"  {len(summary['flagged_cells'])} cell(s) flagged for low statistics")
    if command == "lifetime":
        fits = summary.get("fits", {})
        phys = fits.get("physical", {})
        if phys:
            print("  physical idling bit: tau %.1f ms" % phys["tau_ms"])
        for d, fit in fits.items():
            if d == "physical":
                continue
            note = " (low confidence)" if fit.get("low_confidence") else ""
            print(
                "  d=%s: tau %.1f ms, extension factor %.2f%s"
                % (d, fit["tau_ms"], fit.get("extension_factor", float("nan")), note)
            )


if __name__ == "__main__":
    raise SystemExit(main())
