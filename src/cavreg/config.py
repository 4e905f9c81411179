"""Fail-closed parsing of the flat key = value configuration file.

The file format is `key = value` lines grouped under `[section]` headers,
with `#` comments.  Every key must be known and every known key must be
present; violations are reported with the key name and line number.  All
physical quantities carry their unit in the key name.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import ConfigurationError
from .harness import EXPERIMENTS
from .photons import CavityParams, DetectorModel, PhotonModel
from .readout import ErrorRates, HidingModel, MeasurementErrorTable, ProbeConfig
from .register import IdleErrorModel
from .search import Placement, Strategy
from .streams import SEED_LIMIT


def _float(text: str) -> float:
    return float(text)


def _positive_float(text: str) -> float:
    v = float(text)
    if v <= 0:
        raise ValueError("must be positive")
    return v


def _nonneg_float(text: str) -> float:
    v = float(text)
    if v < 0:
        raise ValueError("must be non-negative")
    return v


def _probability(text: str) -> float:
    v = float(text)
    if not (0.0 <= v <= 1.0):
        raise ValueError("must be in [0, 1]")
    return v


def _int(text: str) -> int:
    return int(text)


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise ValueError("must be >= 1")
    return v


def _nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise ValueError("must be >= 0")
    return v


def _seed(text: str) -> int:
    v = int(text)
    if not 0 <= v < SEED_LIMIT:
        raise ValueError("must be in [0, 2**64)")
    return v


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError("must be true/false")


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _pairs(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for tok in text.replace(",", " ").split():
        power, factor = tok.split(":")
        out.append((float(power), float(factor)))
    if not out:
        raise ValueError("needs at least one power:factor pair")
    return tuple(out)


def _table_row(text: str) -> tuple:
    vals = [float(tok) for tok in text.replace(",", " ").split()]
    if len(vals) != 6:
        raise ValueError(
            "expected 6 numbers: depth_mk detuning_mhz infid_f1 loss_f1 infid_f2 loss_f2"
        )
    return tuple(vals)


def _strategies(text: str) -> list[Strategy]:
    names = {s.value: s for s in Strategy}
    out = []
    for tok in text.replace(",", " ").split():
        if tok not in names:
            raise ValueError(f"unknown strategy {tok!r} (choose from {sorted(names)})")
        out.append(names[tok])
    if not out:
        raise ValueError("needs at least one strategy")
    return out


def _placement(text: str) -> Placement:
    names = {p.value: p for p in Placement}
    if text not in names:
        raise ValueError(f"unknown placement {text!r} (choose from {sorted(names)})")
    return names[text]


def _post_select(text: str) -> str:
    if text in ("distance", "none"):
        return text
    int(text)  # raises if not an integer survivor count
    return text


def _definition(text: str) -> str:
    allowed = ("fitted_tau", "crossing_1_minus_1_over_e", "crossing_p_inf_over_e")
    if text not in allowed:
        raise ValueError(f"must be one of {allowed}")
    return text


# Model keys that `validate-config` range-checks but no experiment reads carry
# this mark: the cavity keys feed `cooperativity`, the hiding-beam profile keys
# feed `light_shift_profile`, and the detection efficiency is a recorded
# calibration value that enters no formula.
_MODEL_ONLY = " (model only: range-checked, read by no experiment)"

# (section, key) -> (parser, description); the single source of truth for
# what a configuration file may and must contain.
SCHEMA: dict[tuple[str, str], tuple] = {
    ("register", "tau_depump_ms"): (_positive_float, "background depump/repump timescale"),
    ("register", "tau_vacuum_ms"): (_positive_float, "vacuum (background-gas) lifetime"),
    ("cavity", "two_g0_mhz"): (_positive_float, "single-photon Rabi frequency 2*g0" + _MODEL_ONLY),
    ("cavity", "kappa_mhz"): (_positive_float, "cavity linewidth" + _MODEL_ONLY),
    ("cavity", "gamma_mhz"): (_positive_float, "atomic excited-state linewidth" + _MODEL_ONLY),
    ("cavity", "finesse"): (_positive_float, "cavity finesse" + _MODEL_ONLY),
    ("cavity", "waist_um"): (_positive_float, "cavity waist" + _MODEL_ONLY),
    ("detector", "dark_rate_hz"): (_nonneg_float, "dark counts per second per detector"),
    ("detector", "n_detectors"): (_positive_int, "number of photon counters"),
    ("detector", "quantum_efficiency"): (_probability, "total detection efficiency" + _MODEL_ONLY),
    ("photon", "bright_mean_full"): (_positive_float, "mean bright-atom counts per full interval"),
    ("photon", "full_interval_us"): (_positive_float, "full measurement interval"),
    ("photon", "sub_interval_us"): (_positive_float, "adaptive polling period"),
    ("photon", "threshold_counts"): (_positive_int, "bright iff counts >= threshold"),
    ("hiding", "depump_per_interval_unhidden"): (_probability, "unhidden depump probability per interval"),
    ("hiding", "suppression_points_mw"): (_pairs, "power_mW:factor calibration pairs"),
    ("hiding", "background_floor_per_interval"): (_probability, "background depump floor per interval"),
    ("hiding", "beam_waist_um"): (_positive_float, "hiding beam waist" + _MODEL_ONLY),
    ("hiding", "shift_slope_mhz_per_uw"): (_positive_float, "light shift per microwatt at center" + _MODEL_ONLY),
    ("hiding", "residual_at_10um"): (_probability, "residual shift fraction at 10 um" + _MODEL_ONLY),
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
    ("readout", "sizes"): (_int_list, "array sizes for the depump scaling sweep"),
    ("readout", "idle_intervals"): (_nonneg_int, "probe-free intervals per round (background depumping only)"),
    ("search", "sizes"): (_int_list, "register sizes for the search-cost sweep"),
    ("search", "bright_probabilities"): (_float_list, "bright-atom probabilities p"),
    ("search", "strategies"): (_strategies, "sequential, global_then_sequential, partitioned"),
    ("search", "placement"): (_placement, "at_most_one or independent"),
    ("search", "false_positive"): (_probability, "group-check false-positive rate"),
    ("search", "false_negative"): (_probability, "group-check false-negative rate"),
    ("code", "distances"): (_int_list, "repetition-code distances"),
    ("code", "rounds"): (_positive_int, "error-correction rounds per trial"),
    ("code", "idle_ms"): (_nonneg_float, "idling time per round"),
    ("code", "per_round_flip"): (_probability, "per-atom flip probability per round"),
    ("code", "per_round_loss"): (_probability, "per-atom loss probability per round"),
    ("code", "round_overhead_ms"): (_nonneg_float, "measurement wall-clock added per round"),
    ("code", "flip_sweep"): (_float_list, "physical error sweep for the scaling experiment"),
    ("code", "post_select"): (_post_select, "survivor post-selection: distance, none, or a count"),
    ("code", "lifetime_definition"): (_definition, "which lifetime number is the headline"),
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

    def cavity_params(self) -> CavityParams:
        return CavityParams(
            g0_mhz=self[("cavity", "two_g0_mhz")] / 2.0,
            kappa_mhz=self[("cavity", "kappa_mhz")],
            gamma_mhz=self[("cavity", "gamma_mhz")],
            finesse=self[("cavity", "finesse")],
            waist_um=self[("cavity", "waist_um")],
        )

    def detector_model(self) -> DetectorModel:
        return DetectorModel(
            dark_rate_hz=self[("detector", "dark_rate_hz")],
            n_detectors=self[("detector", "n_detectors")],
            quantum_efficiency=self[("detector", "quantum_efficiency")],
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
            beam_waist_um=self[("hiding", "beam_waist_um")],
            shift_slope_mhz_per_uw=self[("hiding", "shift_slope_mhz_per_uw")],
            residual_at_10um=self[("hiding", "residual_at_10um")],
        )

    def probe_config(self) -> ProbeConfig:
        return ProbeConfig(
            tweezer_depth_mk=self[("probe", "tweezer_depth_mk")],
            detuning_pc_mhz=self[("probe", "detuning_pc_mhz")],
        )

    def error_table(self) -> MeasurementErrorTable:
        rows = {}
        for i in (1, 2, 3, 4):
            depth, det, if1, lf1, if2, lf2 = self[("error_table", f"row_{i}")]
            rows[(round(depth, 6), round(abs(det), 6))] = ErrorRates(if1, lf1, if2, lf2)
        return MeasurementErrorTable(rows=rows)

    def validate_models(self) -> None:
        """Build every model object and every experiment's params so range
        invariants are checked."""
        self.cavity_params()
        self.error_table().lookup(self.probe_config())
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
