"""Fail-closed parsing of the flat key = value configuration file.

The file format is `key = value` lines grouped under `[section]` headers,
with `#` comments.  Every key must be known and every known key must be
present; violations are reported with the key name and line number.  All
physical quantities carry their unit in the key name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Any, Callable

from .errors import ConfigurationError
from .harness import EXPERIMENTS
from .photons import DetectorModel, PhotonModel
from .readout import ErrorRates, HidingModel
from .register import IdleErrorModel
from .search import Placement, Strategy
from .streams import SEED_LIMIT


def _checked(kind: type, rejects: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """A parser that converts text with `kind` and raises ValueError(rule)
    when rejects(value)."""

    def parse(text: str):
        v = kind(text)
        if rejects(v):
            raise ValueError(rule)
        return v

    return parse


_float = _checked(float, lambda v: not math.isfinite(v), "must be a finite number")
_positive_float = _checked(_float, lambda v: v <= 0, "must be positive")
_nonneg_float = _checked(_float, lambda v: v < 0, "must be non-negative")
_probability = _checked(float, lambda v: not 0.0 <= v <= 1.0, "must be in [0, 1]")
_positive_int = _checked(int, lambda v: v < 1, "must be >= 1")
_nonneg_int = _checked(int, lambda v: v < 0, "must be >= 0")
_seed = _checked(int, lambda v: not 0 <= v < SEED_LIMIT, "must be in [0, 2**64)")


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError("must be true/false")


def _tokens(text: str) -> list[str]:
    """The comma- or space-separated tokens of a list value; at least one."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("needs at least one value")
    return tokens


def _list_of(kind: Callable[[str], Any]) -> Callable[[str], list]:
    """A parser of a sweep list whose tokens each convert with `kind`; no
    value may repeat, since each is one sweep point (one curve, one fit
    point)."""

    def parse(text: str) -> list:
        out = []
        for tok in _tokens(text):
            v = kind(tok)
            if v in out:
                raise ValueError(f"repeats the value {tok}")
            out.append(v)
        return out

    return parse


def _member(enum: type[Enum], what: str) -> Callable[[str], Any]:
    """A parser of one `enum` member by its value."""
    names = {m.value: m for m in enum}

    def parse(text: str):
        if text not in names:
            raise ValueError(f"unknown {what} {text!r} (choose from {sorted(names)})")
        return names[text]

    return parse


def _pairs(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for tok in _tokens(text):
        power, factor = tok.split(":")
        out.append((_float(power), _float(factor)))
    return tuple(out)


def _row_key(depth_mk: float, detuning_mhz: float) -> tuple[float, float]:
    # calibration rows are quoted by depth and |detuning|; sign conventions
    # vary between the table header and the running text
    return (round(depth_mk, 6), round(abs(detuning_mhz), 6))


def _table_row(text: str) -> tuple[tuple[float, float], ErrorRates]:
    """A calibration row as (its probe key, its error rates)."""
    vals = [_float(tok) for tok in text.replace(",", " ").split()]
    if len(vals) != 6:
        raise ValueError(
            "expected 6 numbers: depth_mk detuning_mhz infid_f1 loss_f1 infid_f2 loss_f2"
        )
    if vals[0] <= 0:
        raise ValueError("tweezer depth must be positive")
    return _row_key(vals[0], vals[1]), ErrorRates(*vals[2:])


def _post_select(text: str) -> str:
    if text in ("distance", "none"):
        return text
    int(text)  # raises if not an integer survivor count
    return text


# (section, key) -> (parser, description); the single source of truth for
# what a configuration file may and must contain.
SCHEMA: dict[tuple[str, str], tuple] = {
    ("register", "tau_depump_ms"): (_positive_float, "background depump/repump timescale"),
    ("register", "tau_vacuum_ms"): (_positive_float, "vacuum (background-gas) lifetime"),
    ("detector", "dark_rate_hz"): (_nonneg_float, "dark counts per second per detector"),
    ("detector", "n_detectors"): (_positive_int, "number of photon counters"),
    ("photon", "bright_mean_full"): (_positive_float, "mean bright-atom counts per full interval"),
    ("photon", "full_interval_us"): (_positive_float, "full measurement interval"),
    ("photon", "sub_interval_us"): (_positive_float, "adaptive polling period"),
    ("photon", "threshold_counts"): (_positive_int, "bright iff counts >= threshold"),
    ("hiding", "depump_per_interval_unhidden"): (_probability, "unhidden depump probability per interval"),
    ("hiding", "suppression_points_mw"): (_pairs, "power_mW:factor calibration pairs"),
    ("hiding", "background_floor_per_interval"): (_probability, "background depump floor per interval"),
    ("probe", "tweezer_depth_mk"): (_positive_float, "tweezer depth"),
    ("probe", "detuning_pc_mhz"): (_float, "probe-cavity detuning"),
    ("error_table", "row_1"): (_table_row, "calibration row: depth detuning infid_f1 loss_f1 infid_f2 loss_f2"),
    ("error_table", "row_2"): (_table_row, "calibration row"),
    ("error_table", "row_3"): (_table_row, "calibration row"),
    ("error_table", "row_4"): (_table_row, "calibration row"),
    ("readout", "adaptive_termination"): (_bool, "stop probing once the threshold is crossed"),
    ("readout", "adaptive_loss_factor"): (_positive_float, "bright-state loss reduction under adaptive termination"),
    ("readout", "hiding_power_mw"): (_nonneg_float, "hiding power per atom"),
    ("readout", "adaptive_rounds"): (_bool, "skip sites read vacant in the previous round"),
    ("readout", "readout_rounds"): (_positive_int, "sequential-readout rounds per trial"),
    ("readout", "sizes"): (_list_of(int), "array sizes for the depump scaling sweep"),
    ("readout", "idle_intervals"): (_nonneg_int, "probe-free intervals per round (background depumping only)"),
    ("search", "sizes"): (_list_of(int), "register sizes for the search-cost sweep"),
    ("search", "bright_probabilities"): (_list_of(_float), "bright-atom probabilities p"),
    ("search", "strategies"): (_list_of(_member(Strategy, "strategy")),
                               "sequential, global_then_sequential, partitioned"),
    ("search", "placement"): (_member(Placement, "placement"), "at_most_one or independent"),
    ("search", "false_positive"): (_probability, "group-check false-positive rate"),
    ("search", "false_negative"): (_probability, "group-check false-negative rate"),
    ("code", "distances"): (_list_of(int), "repetition-code distances"),
    ("code", "rounds"): (_positive_int, "error-correction rounds per trial"),
    ("code", "idle_ms"): (_nonneg_float, "idling time per round"),
    ("code", "per_round_flip"): (_probability, "per-atom flip probability per round"),
    ("code", "per_round_loss"): (_probability, "per-atom loss probability per round"),
    ("code", "round_overhead_ms"): (_nonneg_float, "measurement wall-clock added per round"),
    ("code", "flip_sweep"): (_list_of(_float), "physical error sweep for the scaling experiment"),
    ("code", "post_select"): (_post_select, "survivor post-selection: distance, none, or a count"),
    ("run", "trials"): (_positive_int, "default Monte-Carlo trials"),
    ("run", "error_scaling_trials"): (_positive_int, "trials per sweep point for error-scaling"),
    ("run", "lifetime_trials"): (_positive_int, "trials for the lifetime experiment"),
    ("run", "master_seed"): (_seed, "master seed for all random streams"),
    ("run", "threads"): (_positive_int, "worker threads (never changes results)"),
}


@dataclass
class Config:
    values: dict[tuple[str, str], object]

    def __getitem__(self, key: tuple[str, str]):
        return self.values[key]

    # ------------------------------------------------------------ model builders

    def idle_model(self) -> IdleErrorModel:
        return IdleErrorModel(
            tau_depump_ms=self[("register", "tau_depump_ms")],
            tau_vacuum_ms=self[("register", "tau_vacuum_ms")],
        )

    def detector_model(self) -> DetectorModel:
        return DetectorModel(
            dark_rate_hz=self[("detector", "dark_rate_hz")],
            n_detectors=self[("detector", "n_detectors")],
        )

    def photon_model(self) -> PhotonModel:
        return PhotonModel(
            bright_mean_full=self[("photon", "bright_mean_full")],
            full_interval_us=self[("photon", "full_interval_us")],
            sub_interval_us=self[("photon", "sub_interval_us")],
            threshold=self[("photon", "threshold_counts")],
            detector=self.detector_model(),
        )

    def hiding_model(self) -> HidingModel:
        return HidingModel(
            depump_per_interval_unhidden=self[("hiding", "depump_per_interval_unhidden")],
            suppression_points=self[("hiding", "suppression_points_mw")],
            background_floor=self[("hiding", "background_floor_per_interval")],
        )

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
        if _row_key(depth, det) not in rows:
            raise ConfigurationError(f"no calibration row for depth {depth} mK / detuning {det} MHz")
        return rows[_row_key(depth, det)][1]

    def validate_models(self) -> None:
        """Build every model object and every experiment's params so range
        invariants are checked."""
        for exp in EXPERIMENTS.values():
            exp.build(self)


def parse_config_text(text: str, source: str = "<config>") -> Config:
    """Strict parse: every key known, every known key present."""
    values: dict[tuple[str, str], object] = {}
    seen_lines: dict[tuple[str, str], int] = {}
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
        parser, _desc = SCHEMA[full]
        try:
            values[full] = parser(value)
        except (ValueError, ConfigurationError) as err:
            raise ConfigurationError(
                f"{source}:{lineno}: invalid value for '{section}.{key}': {err}"
            ) from None
        seen_lines[full] = lineno
    missing = [k for k in SCHEMA if k not in values]
    if missing:
        names = ", ".join(f"{s}.{k}" for s, k in missing)
        raise ConfigurationError(f"{source}: missing keys: {names}")
    return Config(values)


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
