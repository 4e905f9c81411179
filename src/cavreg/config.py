"""Fail-closed parsing of the flat key = value configuration file.

The file format is `key = value` lines grouped under `[section]` headers,
with `#` comments.  Every key must be known and every known key must be
present; violations are reported with the key name and line number.  All
physical quantities carry their unit in the key name.

The parser converts syntax only.  Every range rule lives in the model and
params constructors, which name the key they check; the parse ends by
building every experiment's spec, so a value out of range is reported with
its key and line as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from importlib import resources
from typing import Any, Callable

from .errors import ConfigurationError
from .harness import EXPERIMENTS, ExperimentSpec
from .photons import DetectorModel, PhotonModel
from .readout import ErrorRates
from .search import Placement, Strategy


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError("must be true/false")


def _list_of(kind: Callable[[str], Any]) -> Callable[[str], list]:
    """A parser of a comma- or space-separated list whose tokens each convert
    with `kind`."""
    return lambda text: [kind(tok) for tok in text.replace(",", " ").split()]


def _member(enum: type[Enum], what: str) -> Callable[[str], Any]:
    """A parser of one `enum` member by its value."""
    names = {m.value: m for m in enum}

    def parse(text: str):
        if text not in names:
            raise ValueError(f"unknown {what} {text!r} (choose from {sorted(names)})")
        return names[text]

    return parse


def _pair(tok: str) -> tuple[float, float]:
    parts = tok.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected power:factor, got {tok!r}")
    return float(parts[0]), float(parts[1])


def _row_key(depth_mk: float, detuning_mhz: float, depth_key: str | None = None,
             detuning_key: str | None = None) -> tuple[float, float]:
    """The key a calibration row is quoted by and the probe looks its row up
    by.  No lookup could reach a depth that is not positive and finite or a
    detuning that is not finite.  The probe names the config key of each;
    a row is one key, which the parser names."""
    if not 0 < depth_mk < math.inf:
        raise ConfigurationError(f"tweezer depth must be positive and finite, not {depth_mk}",
                                 depth_key)
    if not math.isfinite(detuning_mhz):
        raise ConfigurationError(f"detuning {detuning_mhz} is not finite", detuning_key)
    # calibration rows are quoted by depth and |detuning|; sign conventions
    # vary between the table header and the running text
    return (round(depth_mk, 6), round(abs(detuning_mhz), 6))


def _table_row(text: str) -> tuple[tuple[float, float], ErrorRates]:
    """A calibration row as (its probe key, its error rates)."""
    vals = _list_of(float)(text)
    if len(vals) != 6:
        raise ValueError(
            "expected 6 numbers: depth_mk detuning_mhz infid_f1 loss_f1 infid_f2 loss_f2"
        )
    return _row_key(vals[0], vals[1]), ErrorRates(*vals[2:])


# (section, key) -> (parser, description); the single source of truth for
# what a configuration file may and must contain.
SCHEMA: dict[tuple[str, str], tuple] = {
    ("register", "tau_depump_ms"): (float, "background depump/repump timescale"),
    ("register", "tau_vacuum_ms"): (float, "vacuum (background-gas) lifetime"),
    ("detector", "dark_rate_hz"): (float, "dark counts per second per detector"),
    ("detector", "n_detectors"): (int, "number of photon counters"),
    ("photon", "bright_mean_full"): (float, "mean bright-atom counts per full interval"),
    ("photon", "full_interval_us"): (float, "full measurement interval"),
    ("photon", "sub_interval_us"): (float, "adaptive polling period"),
    ("photon", "threshold_counts"): (int, "bright iff counts >= threshold"),
    ("hiding", "depump_per_interval_unhidden"): (float, "unhidden depump probability per interval"),
    ("hiding", "suppression_points_mw"): (_list_of(_pair), "power_mW:factor calibration pairs"),
    ("hiding", "background_floor_per_interval"): (float, "background depump floor per interval"),
    ("probe", "tweezer_depth_mk"): (float, "tweezer depth"),
    ("probe", "detuning_pc_mhz"): (float, "probe-cavity detuning"),
    ("error_table", "row_1"): (_table_row, "calibration row: depth detuning infid_f1 loss_f1 infid_f2 loss_f2"),
    ("error_table", "row_2"): (_table_row, "calibration row"),
    ("error_table", "row_3"): (_table_row, "calibration row"),
    ("error_table", "row_4"): (_table_row, "calibration row"),
    ("readout", "adaptive_termination"): (_bool, "stop probing once the threshold is crossed"),
    ("readout", "adaptive_loss_factor"): (float, "bright-state loss reduction under adaptive termination"),
    ("readout", "hiding_power_mw"): (float, "hiding power per atom"),
    ("readout", "adaptive_rounds"): (_bool, "skip sites read vacant in the previous round"),
    ("readout", "readout_rounds"): (int, "sequential-readout rounds per trial"),
    ("readout", "sizes"): (_list_of(int), "array sizes for the depump scaling sweep"),
    ("readout", "idle_intervals"): (int, "probe-free intervals per round (background depumping only)"),
    ("search", "sizes"): (_list_of(int), "register sizes for the search-cost sweep"),
    ("search", "bright_probabilities"): (_list_of(float), "bright-atom probabilities p"),
    ("search", "strategies"): (_list_of(_member(Strategy, "strategy")),
                               "sequential, global_then_sequential, partitioned"),
    ("search", "placement"): (_member(Placement, "placement"), "at_most_one or independent"),
    ("search", "false_positive"): (float, "group-check false-positive rate"),
    ("search", "false_negative"): (float, "group-check false-negative rate"),
    ("code", "distances"): (_list_of(int), "repetition-code distances"),
    ("code", "rounds"): (int, "error-correction rounds per trial"),
    ("code", "idle_ms"): (float, "idling time per round"),
    ("code", "per_round_flip"): (float, "per-atom flip probability per round"),
    ("code", "per_round_loss"): (float, "per-atom loss probability per round"),
    ("code", "round_overhead_ms"): (float, "measurement wall-clock added per round"),
    ("code", "flip_sweep"): (_list_of(float), "physical error sweep for the scaling experiment"),
    ("code", "post_select"): (str, "survivor post-selection: distance, none, or a count"),
    ("run", "trials"): (int, "default Monte-Carlo trials"),
    ("run", "error_scaling_trials"): (int, "trials per sweep point for error-scaling"),
    ("run", "lifetime_trials"): (int, "trials for the lifetime experiment"),
    ("run", "master_seed"): (int, "master seed for all random streams"),
    ("run", "threads"): (int, "worker threads (never changes results)"),
}


@dataclass
class Config:
    values: dict[tuple[str, str], object]
    # one spec per experiment, built once by parse_config_text
    specs: dict[str, ExperimentSpec] = field(default_factory=dict)

    def __getitem__(self, key: tuple[str, str]):
        return self.values[key]

    def build(self, cls: type, section: str, **given: Any) -> Any:
        """A `cls` whose every field but those `given` (nested models, the
        calibration row) is the [section] key of its name."""
        keys = {f.name: self[(section, f.name)] for f in fields(cls) if f.name not in given}
        return cls(**keys, **given)

    def photon_model(self) -> PhotonModel:
        return self.build(PhotonModel, "photon", detector=self.build(DetectorModel, "detector"))

    def error_rates(self) -> ErrorRates:
        """The [error_table] row at the [probe] depth and |detuning|."""
        rows: dict[tuple[float, float], tuple[str, ErrorRates]] = {}
        for name in (k for s, k in SCHEMA if s == "error_table"):
            key, rates = self[("error_table", name)]
            if key in rows:
                raise ConfigurationError(
                    f"error_table.{rows[key][0]} and error_table.{name} both calibrate "
                    f"depth {key[0]} mK / detuning {key[1]} MHz"
                )
            rows[key] = (name, rates)
        depth, det = self[("probe", "tweezer_depth_mk")], self[("probe", "detuning_pc_mhz")]
        probe = _row_key(depth, det, "probe.tweezer_depth_mk", "probe.detuning_pc_mhz")
        if probe not in rows:
            raise ConfigurationError(f"no calibration row for depth {depth} mK / detuning {det} MHz")
        return rows[probe][1]

    def validate_models(self) -> dict[str, ExperimentSpec]:
        """One spec per experiment, from its params and the [run] keys.
        Building them builds every model and params, so every range check
        runs."""
        return {
            name: ExperimentSpec(name, exp.build(self), self[("run", exp.trials_key)],
                                 self[("run", "master_seed")], self[("run", "threads")])
            for name, exp in EXPERIMENTS.items()
        }


def parse_config_text(text: str, source: str = "<config>") -> Config:
    """Strict parse: every key known, every known key present, and every
    experiment's spec built.  An error of one key names its key and line."""
    values: dict[tuple[str, str], object] = {}
    seen_lines: dict[tuple[str, str], int] = {}

    def invalid(key: tuple[str, str], detail) -> ConfigurationError:
        return ConfigurationError(
            f"{source}:{seen_lines[key]}: invalid value for '{key[0]}.{key[1]}': {detail}"
        )

    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        if section is None:
            raise ConfigurationError(
                f"{source}:{lineno}: key outside of any [section]"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        full = (section, key)
        if full not in SCHEMA:
            raise ConfigurationError(
                f"{source}:{lineno}: unknown key '{section}.{key}'"
            )
        if full in values:
            raise ConfigurationError(
                f"{source}:{lineno}: duplicate key '{section}.{key}' "
                f"(first set at line {seen_lines[full]})"
            )
        seen_lines[full] = lineno
        parser, _desc = SCHEMA[full]
        try:
            values[full] = parser(value)
        except ValueError as err:
            raise invalid(full, err) from None
    missing = [k for k in SCHEMA if k not in values]
    if missing:
        names = ", ".join(f"{s}.{k}" for s, k in missing)
        raise ConfigurationError(f"{source}: missing keys: {names}")
    config = Config(values)
    try:
        config.specs = config.validate_models()
    except ConfigurationError as err:
        if err.key is None:  # a check across keys or models has no line
            raise ConfigurationError(f"{source}: {err}") from None
        raise invalid(tuple(err.key.split(".", 1)), err.message) from None
    return config


def load_config(path: str | None = None) -> Config:
    """Load a config file, or the packaged defaults when no path is given."""
    if path is None:
        text = resources.files("cavreg").joinpath("defaults.cfg").read_text("utf-8")
        return parse_config_text(text, source="defaults.cfg")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def schema_help() -> str:
    lines = ["configuration keys (all required, fail-closed):"]
    section = None
    for (sect, key), (_parser, desc) in SCHEMA.items():
        if sect != section:
            lines.append(f"  [{sect}]")
            section = sect
        lines.append(f"    {key:<32} {desc}")
    return "\n".join(lines)
